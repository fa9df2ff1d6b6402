package repro.construct

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Dataflow, Ontology, Schema}

/** The Linking stage of knowledge construction (§2.3): in-source
  * deduplication and subject linking, implemented as record linkage over
  * the union of the incoming source payload and a KG view of relevant
  * entities:
  *
  *   1. extract a per-type KG view,
  *   2. combine with source entities into one payload,
  *   3. block,
  *   4. generate pairs and score them with a matching model,
  *   5. resolve with correlation clustering; each cluster keeps at most
  *      one KG entity, whose identifier all source entities in the
  *      cluster receive; clusters without a KG entity mint a new one.
  *
  * `same_as` facts recording source-entity → KG-entity links
  * ([[sameAs]]) give full provenance of the linking process; construction
  * fuses them for every new and looked-up link.
  */
object Linking {

  /** Consolidate extended triples into entity records (id, etype, name,
    * aliases, attrs) for matching. Only simple facts participate in
    * matching features; composite nodes are fused later.
    */
  def toRecords(triples: DataFrame, isKg: Boolean): Dataset[Matching.Rec] = {
    val spark = triples.sparkSession
    import spark.implicits._
    triples
      .filter(col(Schema.RId).isNull)
      .groupBy(col(Schema.Subject).as("id"))
      .agg(collect_list(struct(col(Schema.Predicate).as("p"), col(Schema.Obj).as("o"))).as("po"))
      .as[(String, Seq[(String, String)])]
      .map { case (id, po) =>
        val byP = po.groupBy(_._1)
        def one(p: String) = byP.get(p).flatMap(_.map(_._2).sorted.headOption)
        val attrs = (byP -- Seq(Ontology.TypePred, Ontology.NamePred, Ontology.AliasPred, Ontology.SameAs))
          .map { case (p, vs) => p -> vs.map(_._2).sorted.head }
        Matching.Rec(
          id,
          one(Ontology.TypePred).getOrElse("unknown"),
          one(Ontology.NamePred).getOrElse(""),
          byP.getOrElse(Ontology.AliasPred, Seq.empty).map(_._2).distinct,
          attrs,
          isKg)
      }
  }

  /** Extract the KG view relevant to a source payload (§2.3 step 1): all
    * KG triples of entities whose type occurs in the payload.
    */
  def kgViewForTypes(kg: DataFrame, types: Seq[String]): DataFrame = {
    val subjects = kg
      .filter(col(Schema.Predicate) === Ontology.TypePred && col(Schema.Obj).isin(types: _*))
      .select(col(Schema.Subject))
      .distinct()
    kg.join(subjects, Seq(Schema.Subject), "left_semi")
  }

  /** Calibrated probability at or above which a pair is a high-confidence
    * match (+1 edge), and at or below which it is a high-confidence
    * non-match (−1 edge); the band in between adds no edge.
    */
  private val PosThr = 0.85
  private val NegThr = 0.25
  private val MaxBlockSize = 200
  private val Seed = 42L

  /** Run linking of `sourceTriples` (source namespace) against
    * `kgViewTriples` (KG namespace): srcId → kgId for every incoming
    * source entity, local to the driver.
    */
  def run(sourceTriples: DataFrame, kgViewTriples: DataFrame, model: Matching.Model): Seq[(String, String)] = {
    val spark = sourceTriples.sparkSession
    import spark.implicits._

    val srcRecs = toRecords(sourceTriples, isKg = false)
    val kgRecs  = toRecords(kgViewTriples, isKg = true)
    val all = Dataflow.pin(srcRecs.union(kgRecs).toDF()).as[Matching.Rec]

    // The few oversized block keys are collected first; blocking, pair
    // scoring and the edge collect are then one plan. Pairs of two
    // existing KG entities are never scored: construction never merges
    // two KG entities (resolution keeps ≤1 per cluster), so scoring them
    // every batch would make delta consumption scale with |KG| instead
    // of |delta|.
    //
    // Resolution only needs the *active* subgraph: incoming source
    // records plus the KG records they share a decisive edge with. KG
    // entities untouched by the payload cannot change cluster — skipping
    // them is what makes delta consumption cheap as the KG grows (§2.4).
    val m = model
    val oversized = Blocking.oversizedKeys(all, MaxBlockSize).collect().toSet
    val edges = Blocking.pairs(all, oversized) { (a, b) =>
      val p = m.prob(a, b)
      if (p >= PosThr) Some(CorrelationClustering.Edge(a.id, b.id, 1, p))
      else if (p <= NegThr) Some(CorrelationClustering.Edge(a.id, b.id, -1, p))
      else None
    }.collect().toSeq
    val srcIds = all.filter(!$"isKg").map(_.id).collect().toSeq
    CorrelationClustering.resolve(srcIds, edges, Seed)
  }

  /** The same_as provenance triples (kgId, same_as, srcId) of `links`
    * (srcId → kgId), each asserted by the srcId's source with trust 1.
    */
  def sameAs(spark: SparkSession, links: Seq[(String, String)]): DataFrame = {
    import spark.implicits._
    Schema.canonicalize(links.toDF("srcId", "kgId").select(
      col("kgId").as(Schema.Subject),
      lit(Ontology.SameAs).as(Schema.Predicate),
      lit(null: String).as(Schema.RId), lit(null: String).as(Schema.RPredicate),
      col("srcId").as(Schema.Obj), lit("zxx").as(Schema.Locale),
      array(split(col("srcId"), ":").getItem(0)).as(Schema.Sources),
      array(lit(1.0)).as(Schema.Trust), lit(1.0).as(Schema.Conf)))
  }

  /** Rewrite the subjects of linked source triples into the KG namespace.
    * Every source subject must have a link (linking is total over the
    * payload); the inner join enforces it. The links are a driver-held
    * mapping bounded by the payload, so they are broadcast and the
    * triples are not shuffled: a driver-held mapping is always a
    * broadcast join, and only a driver-held set (see
    * [[Fusion.retractSource]]) is an `isin`.
    */
  def rewriteSubjects(sourceTriples: DataFrame, links: Seq[(String, String)]): DataFrame = {
    val spark = sourceTriples.sparkSession
    import spark.implicits._
    Schema.canonicalize(
      sourceTriples
        .join(broadcast(links.toDF(Schema.Subject, "kgId")), Seq(Schema.Subject))
        .drop(Schema.Subject)
        .withColumnRenamed("kgId", Schema.Subject))
  }
}
