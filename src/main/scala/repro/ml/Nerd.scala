package repro.ml

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Ontology, Schema}
import repro.ml.StringSim.LearnedEncoder

/** The NERD stack (§5.2): named entity recognition and disambiguation
  * against the KG. Implements object resolution during construction and
  * semantic annotation of text.
  *
  * Pipeline: the *NERD Entity View* summarizes each KG entity (names and
  * aliases, ontology types, relationships, neighbor types, importance);
  * *candidate retrieval* prunes the entity space using string similarity
  * over names/aliases (learned, so nicknames retrieve), type constraints
  * and importance; *contextual entity disambiguation* scores each
  * candidate against the mention's context with a rejection option and a
  * calibrated confidence.
  *
  * Substitution note (DESIGN.md §3): the paper's disambiguator is a
  * transformer over (context, entity-summary) pairs. Ours scores the
  * overlap between the mention context and the entity-view record —
  * the exact signal the transformer attends over — and calibrates it
  * with a fixed logistic. The evaluation contrast (relational context vs
  * popularity-only baseline; head vs tail) is preserved.
  */
object Nerd {

  /** One record of the NERD Entity View (§5.2). */
  final case class EntityEntry(
      id: String,
      names: Seq[String],
      types: Seq[String],
      relationships: Seq[String],   // "<pred> <neighbor primary name>"
      neighborTypes: Seq[String],
      literals: Seq[String],        // salient literal attribute values
      importance: Double,
  )

  /** Build the NERD Entity View with the Graph Engine (Spark) and collect
    * it for serving. `importance` is the (id, importance) view of
    * [[repro.engine.Importance]]; entities absent from it get 0.
    */
  def buildEntries(kg: DataFrame, importance: DataFrame): Seq[EntityEntry] = {
    val spark = kg.sparkSession
    import spark.implicits._

    val metaPreds = Seq(Ontology.NamePred, Ontology.AliasPred, Ontology.TypePred, Ontology.SameAs)
    val names = kg
      .filter(col(Schema.Predicate).isin(Ontology.NamePred, Ontology.AliasPred) && col(Schema.RId).isNull)
      .groupBy(col(Schema.Subject).as("id"))
      .agg(sort_array(collect_set(col(Schema.Obj))).as("names"),
           min(when(col(Schema.Predicate) === Ontology.NamePred, col(Schema.Obj))).as("primary"))
    val types = kg.filter(col(Schema.Predicate) === Ontology.TypePred)
      .groupBy(col(Schema.Subject).as("id"))
      .agg(sort_array(collect_set(col(Schema.Obj))).as("types"))

    val refEdges = kg
      .filter(col(Schema.Obj).startsWith(Schema.KgNs) && col(Schema.Predicate) =!= Ontology.SameAs)
      .select(col(Schema.Subject).as("id"),
              Schema.flatPredicate.as("pred"),
              col(Schema.Obj).as("nbr"))
    val rels = refEdges
      .join(names.select(col("id").as("nbr"), col("primary").as("nbrName")), Seq("nbr"), "left")
      .join(types.select(col("id").as("nbr"), col("types").as("nbrTypes")), Seq("nbr"), "left")
      .groupBy("id")
      .agg(sort_array(collect_set(concat_ws(" ", col("pred"), coalesce(col("nbrName"), col("nbr"))))).as("relationships"),
           sort_array(collect_set(coalesce(col("nbrTypes"), array()))).as("nbrTypeSets"))
      .select(col("id"), col("relationships"), flatten(col("nbrTypeSets")).as("neighborTypes"))

    val lits = kg
      .filter(col(Schema.RId).isNull && !col(Schema.Predicate).isin(metaPreds: _*) &&
              !col(Schema.Obj).startsWith(Schema.KgNs))
      .groupBy(col(Schema.Subject).as("id"))
      .agg(slice(sort_array(collect_set(col(Schema.Obj))), 1, 12).as("literals"))

    names
      .join(types, Seq("id"), "left")
      .join(rels, Seq("id"), "left")
      .join(lits, Seq("id"), "left")
      .join(importance.select(col("id"), col("importance")), Seq("id"), "left")
      .select(col("id"), col("names"), coalesce(col("types"), array()).as("types"),
              coalesce(col("relationships"), array()).as("relationships"),
              coalesce(col("neighborTypes"), array()).as("neighborTypes"),
              coalesce(col("literals"), array()).as("literals"),
              coalesce(col("importance"), lit(0.0)).as("importance"))
      .as[EntityEntry]
      .collect().toSeq
  }

  /** A disambiguation decision: the chosen entity and the calibrated
    * confidence; callers accept when `confidence >= threshold`.
    */
  final case class Prediction(id: String, confidence: Double)

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** Shared calibration + rejection: turn the raw score of the best
    * candidate and the runner-up into a calibrated confidence. Only a
    * *near-tie* with the runner-up (margin below 0.08 raw points — two
    * entities with the same name and no separating evidence) is
    * penalized; a clearly-worse decoy leaves confidence intact. This is
    * the rejection mechanism of §5.2.
    */
  private def calibrate(raw1: Double, raw2: Double): Double = {
    val penalty = 3.5 * math.max(0.0, 0.08 - (raw1 - raw2))
    sigmoid(12.0 * (raw1 - penalty - 0.58))
  }

  /** Name-token retrieval shared by [[Index]] and [[PopularityBaseline]]:
    * postings from name and alias tokens to entry indices, the candidate
    * order — most name tokens shared with the mention first, then
    * importance, then id — and each entry's normalized names.
    */
  private final class NameRetrieval(byIdx: Array[EntityEntry]) extends Serializable {

    /** token → entry indices (over names and aliases). */
    val postings: Map[String, Array[Int]] = {
      val m = scala.collection.mutable.HashMap[String, List[Int]]()
      byIdx.zipWithIndex.foreach { case (e, i) =>
        e.names.flatMap(StringSim.tokens).distinct.foreach(t => m(t) = i :: m.getOrElse(t, Nil))
      }
      m.iterator.map { case (t, is) => t -> is.toArray }.toMap
    }

    private val nameTokens: Array[Set[String]] =
      byIdx.map(_.names.flatMap(StringSim.tokens).toSet)

    /** Each entry's names, normalized once per index. Derived, so it is
      * rebuilt rather than serialized when the index ships in a closure.
      */
    @transient lazy val normalizedNames: Array[Array[String]] =
      byIdx.map(_.names.map(StringSim.normalize).toArray)

    /** Distinct entry indices posted under any of `tokens`. */
    def hits(tokens: Seq[String]): Seq[Int] =
      tokens.flatMap(t => postings.getOrElse(t, Array.empty[Int])).distinct

    /** The best `k` of `hits` for a mention with tokens `mentionToks`, best first. */
    def top(mentionToks: Seq[String], hits: Seq[Int], k: Int): Seq[Int] = {
      val toks = mentionToks.toSet
      hits
        .sortBy(i => (-toks.intersect(nameTokens(i)).size,
                      -byIdx(i).importance, byIdx(i).id))
        .take(k)
    }
  }

  /** The serving-side NERD index: candidate retrieval + contextual
    * disambiguation over the collected entity view.
    */
  final class Index(val entries: Seq[EntityEntry], encoder: LearnedEncoder) extends Serializable {

    private val byIdx: Array[EntityEntry] = entries.toArray
    private val nameIndex = new NameRetrieval(byIdx)

    /** Distinct indexed tokens with their learned vectors — vocabulary-
      * level nearest neighbours let nickname tokens ("bob") retrieve
      * postings of their synonym ("robert") without scanning entities.
      */
    private val vocab: Array[(String, Array[Double])] =
      nameIndex.postings.keys.toArray.sorted.map(t => t -> encoder.encodeString(t))

    private def expandToken(t: String): Seq[String] =
      if (nameIndex.postings.contains(t)) Seq(t)
      else {
        val q = encoder.encodeString(t)
        vocab.iterator
          .map { case (tok, v) => tok -> StringSim.cosine(q, v) }
          .filter(_._2 >= 0.80)
          .toSeq.sortBy(-_._2).take(3).map(_._1)
      }

    /** Profile token bag of an entity — what the contextual model attends
      * over: relationship strings, neighbor types, own types, literals.
      */
    private def profileTokens(e: EntityEntry): Set[String] =
      (e.relationships ++ e.neighborTypes ++ e.types ++ e.literals)
        .flatMap(StringSim.tokens).toSet

    private val profiles: Array[Set[String]] = byIdx.map(profileTokens)

    /** Each entry's names, learned-encoded once per index (rebuilt, not
      * serialized, like [[NameRetrieval.normalizedNames]]).
      */
    @transient private lazy val nameVecs: Array[Array[Array[Double]]] =
      byIdx.map(_.names.map(encoder.encodeString).toArray)

    /** Candidate retrieval (§5.2): token-posting union with vocabulary
      * expansion and an optional admissible-type filter. Truncation to k
      * ranks by token-overlap first (string evidence) and importance
      * second (the paper's prioritization under resource constraints) —
      * importance alone would evict exact matches of tail entities.
      */
    def candidates(mention: String, k: Int = 10, typeHint: Option[String] = None): Seq[EntityEntry] =
      candidateIdx(StringSim.tokens(mention), k, typeHint).map(byIdx)

    private def candidateIdx(mentionToks: Seq[String], k: Int, typeHint: Option[String]): Seq[Int] = {
      val hit = nameIndex.hits(mentionToks.flatMap(expandToken).distinct)
      val typed = typeHint match {
        case Some(th) => hit.filter(i => byIdx(i).types.contains(th))
        case None     => hit
      }
      nameIndex.top(mentionToks, typed, k)
    }

    /** Best `0.6 * editSim + 0.4 * encoder.sim` of a mention against entry
      * `i`'s names, from the mention's normalized form and learned vector.
      */
    private def nameSim(normalized: String, vec: Array[Double], i: Int): Double = {
      val (names, vecs) = (nameIndex.normalizedNames(i), nameVecs(i))
      if (names.isEmpty) 0.0
      else names.indices.map(j =>
        0.6 * StringSim.normalizedEditSim(normalized, names(j)) + 0.4 * StringSim.cosine(vec, vecs(j))).max
    }

    private def rawScore(normalized: String, vec: Array[Double], ctx: Set[String],
                         impNorm: Double => Double)(i: Int): Double = {
      val e = byIdx(i)
      val ns = nameSim(normalized, vec, i)
      // Context acts as *additional evidence*, never as a requirement: an
      // unambiguous exact name match must clear a 0.9 threshold even for
      // context-free inputs (object resolution over bare literals), while
      // context overlap is what separates same-name candidates — the
      // margin term in `calibrate` then rewards the candidate whose
      // profile the context actually matches.
      val overlap =
        if (ctx.isEmpty) 0.0
        else math.min(1.0, ctx.intersect(profiles(i)).size.toDouble / math.max(1, math.min(ctx.size, 6)))
      0.80 * ns + 0.08 * impNorm(e.importance) + 0.12 * overlap
    }

    /** Contextual entity disambiguation with rejection (§5.2): classify
      * over the candidate set; return the best candidate with calibrated
      * confidence, or None when no candidate retrieves.
      */
    def disambiguate(mention: String, context: Seq[String],
                     typeHint: Option[String] = None, k: Int = 10): Option[Prediction] = {
      val toks = StringSim.tokens(mention)
      val cands = candidateIdx(toks, k, typeHint)
      if (cands.isEmpty) return None
      val maxImp = math.max(1e-9, cands.map(byIdx(_).importance).max)
      val ctx = context.flatMap(StringSim.tokens).toSet
      val (normalized, vec) = (toks.mkString(" "), encoder.encodeTokens(toks))
      val scored = cands
        .map(i => byIdx(i).id -> rawScore(normalized, vec, ctx, _ / maxImp)(i))
        .sortBy { case (id, s) => (-s, id) }
      val raw1 = scored.head._2
      val raw2 = if (scored.size > 1) scored(1)._2 else 0.0
      Some(Prediction(scored.head._1, calibrate(raw1, raw2)))
    }
  }

  /** The "existing deployed method" of Figure 14: a popularity- and
    * string-similarity-driven disambiguator that does not leverage the
    * relational information of the KG — strong on head entities, weak on
    * tail entities, blind to synonyms.
    */
  final class PopularityBaseline(entries: Seq[EntityEntry]) extends Serializable {
    private val byIdx = entries.toArray
    private val nameIndex = new NameRetrieval(byIdx)
    private val maxImp = math.max(1e-9, byIdx.map(_.importance).maxOption.getOrElse(0.0))

    def disambiguate(mention: String, k: Int = 10): Option[Prediction] = {
      // A competent deployed system: retrieval is string-driven (token
      // overlap), only *ranking among retrieved candidates* leans on
      // popularity/string similarity. What it lacks vs NERD is the
      // relational context of the KG and the learned synonym space.
      val toks = StringSim.tokens(mention)
      val hits = nameIndex.top(toks, nameIndex.hits(toks), k)
      if (hits.isEmpty) return None
      val normalized = toks.mkString(" ")
      val scored = hits.map { i =>
        val names = nameIndex.normalizedNames(i)
        val ns = if (names.isEmpty) 0.0 else names.map(StringSim.normalizedEditSim(normalized, _)).max
        byIdx(i).id -> (0.8 * ns + 0.2 * (byIdx(i).importance / maxImp))
      }.sortBy { case (id, s) => (-s, id) }
      val raw1 = scored.head._2
      val raw2 = if (scored.size > 1) scored(1)._2 else 0.0
      Some(Prediction(scored.head._1, calibrate(raw1, raw2)))
    }
  }
}
