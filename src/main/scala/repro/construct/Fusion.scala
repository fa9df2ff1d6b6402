package repro.construct

import org.apache.spark.sql.{Column, DataFrame, Encoders, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.core.{Ontology, Schema}

/** Fusion (§2.3): merge a linked source payload with the KG into a new
  * consistent state.
  *
  *   - Simple facts fuse by union + [[consolidate]] on the fact key: an
  *     existing fact gains the source in its provenance, a new one is added.
  *   - Composite facts first match source relationship nodes against KG
  *     relationship nodes by the intersection of their underlying facts;
  *     sufficiently-overlapping nodes merge (the source node adopts the KG
  *     `r_id`), the rest are added as new relationship nodes.
  *   - Truth discovery estimates a probability of correctness per fact
  *     from cross-source (dis)agreement and source reliability, stored in
  *     the `conf` metadata column.
  *   - Volatile predicates fuse by per-source partition overwrite, never
  *     by join (§2.4).
  *
  * Fusion is non-destructive: provenance arrays always record every
  * contributing source, enabling license views and on-demand deletion.
  */
object Fusion {

  private val keyCols: Seq[String] = Schema.factKey

  /** Predicates that legitimately hold several values per slot; truth
    * discovery leaves their noisy-or confidence as is.
    */
  private val multiValued: Seq[String] = Seq(Ontology.AliasPred, Ontology.SameAs)

  /** Noisy-or confidence of a provenance array of (sources, trust)
    * structs, rounded to 6 digits.
    */
  private def noisyOr(provenance: String): Column =
    expr(s"round(1.0 - aggregate($provenance, CAST(1.0 AS DOUBLE), (acc, x) -> acc * (1.0 - x.trust)), 6)")

  /** Merge duplicate fact rows (identical fact key) into one row whose
    * provenance is the union of contributors (max trust per source) and
    * whose confidence is the noisy-or of contributor trusts. One
    * aggregation: each key's (source, trust) list is sorted, so the last
    * entry of each source holds its max trust.
    */
  def consolidate(triples: DataFrame): DataFrame =
    triples
      .select(keyCols.map(col) :+
              explode(arrays_zip(col(Schema.Sources), col(Schema.Trust))).as("st"): _*)
      .groupBy(keyCols.map(col): _*)
      .agg(sort_array(collect_list(col("st"))).as("st"))
      .withColumn("st", expr("filter(st, (x, i) -> i + 1 = size(st) OR get(st, i + 1).sources != x.sources)"))
      .select(keyCols.map(col) :+
              expr("st.sources").as(Schema.Sources) :+
              expr("st.trust").as(Schema.Trust) :+
              noisyOr("st").as(Schema.Conf): _*)

  /** Deterministic relationship-node id for a source node that matched no
    * KG node: a hash of the owning subject and the node's fact set, so
    * duplicate source records of the same entity mint the *same* new node.
    */
  private def mintRId(subject: String, facts: Set[String]): String =
    subject + "#r:" + Schema.mintKgId(subject + "|" + facts.toSeq.sorted.mkString("§")).drop(3).take(8)

  /** The node a source node with fact set `facts` merges into, among
    * `nodes` (r_id → fact set) of the same (subject, predicate): a pair
    * merges when the intersection of their fact sets is "sufficient" — at
    * least 2 shared facts, or every fact of the smaller node is shared.
    * The best sufficient node shares the most facts, then has the
    * smallest `r_id`.
    */
  private def bestMatch(nodes: Map[String, Set[String]], facts: Set[String]): Option[String] =
    nodes.toSeq
      .map { case (rid, other) => (rid, facts.intersect(other).size, other.size) }
      .filter { case (_, shared, size) => shared >= 1 && shared >= math.min(2, math.min(facts.size, size)) }
      .sortBy { case (rid, shared, _) => (-shared, rid) }(Ordering.Tuple2(Ordering.Int, CorrelationClustering.sparkOrder))
      .headOption.map(_._1)

  /** Align the relationship nodes of one (subject, predicate) group. `rows`
    * are canonical composite rows with a trailing batch index: 0 for the
    * KG, then the incoming batches in order. Each batch's nodes (rows
    * sharing an `r_id`, as a set of `r_predicate=obj` facts) match the
    * KG's nodes plus the aligned nodes of the batches before it
    * ([[bestMatch]]); a node with no match mints a deterministic `r_id`.
    * Returns every row without the batch index, batch rows re-keyed.
    */
  private def alignGroup(subject: String, rows: Iterator[Row]): Seq[Row] = {
    def fact(r: Row): String = Seq(r.getString(3), r.getString(4)).filter(_ != null).mkString("=")
    def nodeFacts(rs: Seq[Row]): Map[String, Set[String]] =
      rs.groupMapReduce(_.getString(2))(r => Set(fact(r)))(_ ++ _)
    def withRId(r: Row, rid: String): Row = Row.fromSeq(r.toSeq.take(Schema.columns.size).updated(2, rid))
    val batches = rows.toSeq.groupBy(_.getInt(Schema.columns.size))
    val kg = batches.getOrElse(0, Seq.empty).map(r => withRId(r, r.getString(2)))
    (batches - 0).toSeq.sortBy(_._1).foldLeft(kg) { case (done, (_, batch)) =>
      val nodes = nodeFacts(done)
      val rid = nodeFacts(batch).map { case (srcRId, facts) =>
        srcRId -> bestMatch(nodes, facts).getOrElse(mintRId(subject, facts))
      }
      done ++ batch.map(r => withRId(r, rid(r.getString(2))))
    }
  }

  /** Fuse linked, object-resolved batches into the KG (stable facts only)
    * in one pass, the sync point of construction. The relationship nodes
    * of every (subject, predicate) align in one group, batch after batch
    * in order (see [[alignGroup]]); one [[consolidate]] then fuses every
    * row, simple and composite (the fact key separates them by `r_id`).
    * This equals `fuse(fuse(kg, a), b)`: consolidation is associative per
    * fact key (max trust per source, then noisy-or) and keeps each node's
    * fact set, so `b` aligns against the same node fact sets either way.
    */
  def fuse(kg: DataFrame, incoming: DataFrame*): DataFrame = {
    val spark = kg.sparkSession
    import spark.implicits._
    val all = (kg +: incoming).map(Schema.canonicalize)
    val composite = all.zipWithIndex
      .map { case (df, i) => df.filter(col(Schema.RId).isNotNull).withColumn("__batch", lit(i)) }
      .reduce(_ unionByName _)
    val aligned = composite
      .groupByKey(r => (r.getString(0), r.getString(1)))
      .flatMapGroups((key, rows) => alignGroup(key._1, rows))(
        Encoders.row(StructType(composite.schema.dropRight(1))))
    consolidate(all.map(_.filter(col(Schema.RId).isNull)).reduce(_ unionByName _).unionByName(aligned))
  }

  /** Remove `source` from the provenance of all facts of the given KG
    * subjects (used for Updated — retract-then-refuse — and Deleted
    * payloads). Facts left with no remaining provenance are dropped; the
    * non-destructive contract is honoured because deletion is driven by
    * the provenance arrays themselves (on-demand data deletion, §1.2).
    * The subjects are a driver-held set bounded by the payload, so they
    * mark the facts to strip through `isin`, with no join: a driver-held
    * set is always an `isin`, and only a driver-held mapping (see
    * [[Linking.rewriteSubjects]]) is a broadcast join.
    */
  def retractSource(kg: DataFrame, source: String, subjects: Seq[String]): DataFrame = {
    val zipped = arrays_zip(col(Schema.Sources), col(Schema.Trust))
    val kept = filter(zipped, _.getField(Schema.Sources) =!= lit(source))
    Schema.canonicalize(
      kg
        .withColumn("__kept", when(col(Schema.Subject).isin(subjects: _*), kept).otherwise(zipped))
        .filter(size(col("__kept")) > 0)
        .withColumn(Schema.Sources, expr("__kept.sources"))
        .withColumn(Schema.Trust, expr("__kept.trust"))
        .withColumn(Schema.Conf, noisyOr("__kept"))
        .drop("__kept"))
  }

  /** Volatile fusion (§2.4): the KG maintains a per-source partition of
    * volatile triples; consuming a new volatile dump *overwrites* that
    * source's partition — no joins. `dump` must already be in the KG
    * namespace (subjects rewritten through the link table).
    */
  def overwriteVolatilePartition(kgVolatile: DataFrame, source: String, dump: DataFrame): DataFrame =
    Schema.canonicalize(
      kgVolatile.filter(!array_contains(col(Schema.Sources), source)).unionByName(dump))

  /** Truth discovery over the fused KG (§2.3): iterate (a) fact confidence
    * from reliability-weighted source votes, (b) source reliability from
    * the confidence of the facts it supports. Conflicts are competing
    * objects for the same single-valued slot (same subject, predicate,
    * relationship slot, locale). Multi-valued predicates (alias, same_as)
    * keep their noisy-or confidence.
    */
  def truthDiscovery(kg: DataFrame, iterations: Int = 2): DataFrame = {
    val td = kg.filter(!col(Schema.Predicate).isin(multiValued: _*))
    val keep = kg.filter(col(Schema.Predicate).isin(multiValued: _*))

    // Initial reliability: the mean declared trust of each source.
    val declared: Map[String, Double] = td
      .select(explode(arrays_zip(col(Schema.Sources), col(Schema.Trust))).as("st"))
      .groupBy(col("st.sources").as("src")).agg(avg("st.trust").as("r"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap

    val slot = Seq(Schema.Subject, Schema.Predicate, Schema.RId, Schema.RPredicate, Schema.Locale)
    def score(rel: Map[String, Double]): DataFrame = {
      val wUdf = udf((srcs: Seq[String]) => srcs.map(rel.getOrElse(_, 0.5)).sum)
      val noisyOr = udf((srcs: Seq[String], ts: Seq[Double]) =>
        1.0 - srcs.zip(ts).map { case (s, t) => 1.0 - t * rel.getOrElse(s, 0.5) }.product)
      val win = Window.partitionBy(slot.map(col): _*)
      td
        .withColumn("__w", wUdf(col(Schema.Sources)))
        .withColumn("__total", sum("__w").over(win))
        .withColumn("__nvals", size(collect_set(col(Schema.Obj)).over(win)))
        .withColumn(Schema.Conf,
          round(when(col("__nvals") > 1, col("__w") / col("__total"))
            .otherwise(noisyOr(col(Schema.Sources), col(Schema.Trust))), 6))
        .drop("__w", "__total", "__nvals")
    }
    // Source reliability: the mean confidence of the facts a source supports.
    def reliability(scored: DataFrame): Map[String, Double] = scored
      .select(col(Schema.Conf), explode(col(Schema.Sources)).as("src"))
      .groupBy("src").agg(avg(Schema.Conf).as("r"))
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap

    // Reliability is re-estimated only between rounds: the last round's
    // would have no reader.
    val scored = (1 until math.max(1, iterations))
      .foldLeft(score(declared))((cur, _) => score(reliability(cur)))
    Schema.canonicalize(scored.unionByName(keep))
  }
}
