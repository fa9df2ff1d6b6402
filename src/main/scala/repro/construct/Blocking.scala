package repro.construct

import org.apache.spark.sql.{Dataset, Encoder}
import repro.ml.StringSim

/** Blocking (§2.3 step 3): distribute entities across buckets with
  * lightweight key functions so that likely matches share a bucket,
  * reducing the quadratic pair space. Each record emits several keys
  * (multi-pass blocking) over its name *and* aliases, so a typo in one
  * rendering still collides on another key.
  */
object Blocking {

  /** Blocking key functions over a single name string. Keys are cheap,
    * deterministic, and tolerant of different failure modes:
    *   - prefix: first 4 chars of the normalized string (head typos lose it,
    *     tail typos keep it),
    *   - tokens: initial trigrams of the first two sorted tokens (word
    *     reorderings keep it),
    *   - skeleton: the consonant skeleton (vowel typos keep it).
    */
  def keysForName(name: String): Seq[String] = {
    val n = StringSim.normalize(name)
    if (n.isEmpty) return Seq.empty
    val prefix = "p:" + n.replace(" ", "").take(4)
    val toks = n.split(' ').sorted.take(2).map(_.take(3)).mkString("t:", "_", "")
    val skel = "s:" + n.replace(" ", "").filterNot("aeiou".contains(_)).take(6)
    Seq(prefix, toks, skel).distinct
  }

  /** All blocking keys of a record: type-scoped keys over name + aliases. */
  def keysForRecord(etype: String, name: String, aliases: Seq[String]): Seq[String] =
    (name +: aliases).flatMap(keysForName).distinct.map(k => s"$etype|$k")

  /** Block keys of `records` shared by more than `maxBlockSize` records:
    * low-information keys whose blocks are dropped — the standard guard
    * against quadratic blow-up in skewed blocks. They are few, so the
    * caller collects them for [[pairs]].
    */
  def oversizedKeys(records: Dataset[Matching.Rec], maxBlockSize: Int): Dataset[String] = {
    val spark = records.sparkSession
    import spark.implicits._
    records.flatMap(r => recordKeys(r))
      .groupBy("value").count().filter($"count" > maxBlockSize)
      .select("value").as[String]
  }

  /** Candidate pairs of `records` (§2.3 steps 3–4), each handed to `score`
    * once: the pairs of records that share a block key outside
    * `oversized`, have at least one source record (construction never
    * merges two KG entities), and `score` keeps.
    *
    * One shuffle: each kept block is scored locally, and a pair is scored
    * only in the smallest kept key its two records share, so a pair
    * co-blocked under several keys is scored once (Kolb, Thor & Rahm,
    * "Don't Match Twice", 2013). `score(a, b)` gets the pair in Spark's
    * string order of ids, `a.id < b.id`.
    */
  def pairs[T: Encoder](records: Dataset[Matching.Rec], oversized: Set[String])
                       (score: (Matching.Rec, Matching.Rec) => Option[T]): Dataset[T] = {
    val spark = records.sparkSession
    import spark.implicits._
    // A function value, not a local def: tasks capture it, and a local
    // def would capture this (unserializable) object instead.
    val kept = (r: Matching.Rec) => recordKeys(r).filterNot(oversized)
    records.flatMap(r => kept(r).map(_ -> r))
      .groupByKey(_._1)
      .flatMapGroups { (key, members) =>
        val recs = members.map(_._2).toVector.sortBy(_.id)(CorrelationClustering.sparkOrder)
        val keys = recs.map(kept(_).toSet)
        for {
          i <- recs.indices.iterator
          j <- (i + 1 until recs.size).iterator
          if !(recs(i).isKg && recs(j).isKg) && keys(i).intersect(keys(j)).min == key
          t <- score(recs(i), recs(j))
        } yield t
      }
  }

  private def recordKeys(r: Matching.Rec): Seq[String] =
    keysForRecord(r.etype, r.name, Option(r.aliases).getOrElse(Seq.empty))
}
