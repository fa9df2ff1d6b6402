package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Dataflow, Schema}

/** Entity importance (§3.3): a structural importance score over the KG
  * combining four signals — in-degree, out-degree, number of identities
  * (sources contributing facts to the entity), and PageRank — aggregated
  * into a single score. Computed by the analytics engine and registered
  * as a KG view so it is maintained as the graph changes.
  *
  * Each raw metric is normalized to [0,1] by dividing by its maximum (a
  * rank-free normalization that is stable under incremental updates), and
  * the aggregate is a weighted mean. Degree alone would bias entities
  * from verbose sources (§3.3), hence the source-count and PageRank
  * components.
  */
object Importance {

  /** Entity-to-entity edges of the KG: facts whose object is itself a KG
    * entity identifier.
    */
  def edges(triples: DataFrame): DataFrame =
    triples
      .filter(col(Schema.Obj).startsWith(Schema.KgNs) && col(Schema.Subject) =!= col(Schema.Obj))
      .select(col(Schema.Subject).as("src"), col(Schema.Obj).as("dst"))
      .distinct()

  /** Entity ids of the KG: every subject. */
  private def nodes(triples: DataFrame): DataFrame =
    triples.select(col(Schema.Subject).as("id")).distinct()

  /** In/out degree per entity (nodes with no edges get zeroes). */
  def degrees(triples: DataFrame): DataFrame = degrees(edges(triples), nodes(triples))

  private def degrees(e: DataFrame, nodes: DataFrame): DataFrame = {
    val outD = e.groupBy(col("src").as("id")).agg(count("*").as("outDegree"))
    val inD  = e.groupBy(col("dst").as("id")).agg(count("*").as("inDegree"))
    nodes.join(outD, Seq("id"), "left").join(inD, Seq("id"), "left")
      .na.fill(0L, Seq("outDegree", "inDegree"))
  }

  /** Number of identities: how many distinct sources contribute facts to
    * the entity (§3.3).
    */
  def identities(triples: DataFrame): DataFrame =
    triples
      .select(col(Schema.Subject).as("id"), explode(col(Schema.Sources)).as("src"))
      .groupBy("id").agg(countDistinct("src").as("identities"))

  private val Damping = 0.85

  /** Power-iteration PageRank over the entity graph (dangling mass is
    * redistributed uniformly). Returns (id, pagerank) summing to ~1.
    */
  def pagerank(triples: DataFrame, iterations: Int = 10): DataFrame =
    pagerank(Dataflow.pin(edges(triples)), Dataflow.pin(nodes(triples)), iterations)

  /** PageRank over pinned edges and nodes, which every iteration reads. */
  private def pagerank(e: DataFrame, nodes: DataFrame, iterations: Int): DataFrame = {
    val n = nodes.count().toDouble
    if (n == 0) return nodes.withColumn("pagerank", lit(0.0))
    val outDeg = e.groupBy(col("src").as("id")).agg(count("*").as("deg"))

    var ranks = nodes.withColumn("rank", lit(1.0 / n))
    for (_ <- 0 until iterations) {
      val withDeg = ranks.join(outDeg, Seq("id"), "left")
      val danglingMass = withDeg.filter(col("deg").isNull)
        .agg(coalesce(sum("rank"), lit(0.0))).first().getDouble(0)
      val contrib = e
        .join(withDeg.filter(col("deg").isNotNull), e("src") === col("id"))
        .select(col("dst").as("id"), (col("rank") / col("deg")).as("c"))
        .groupBy("id").agg(sum("c").as("inbound"))
      ranks = Dataflow.pin(
        nodes.join(contrib, Seq("id"), "left")
          .select(col("id"),
            (lit((1 - Damping) / n) +
             lit(Damping) * (coalesce(col("inbound"), lit(0.0)) + lit(danglingMass / n))).as("rank")))
    }
    ranks.withColumnRenamed("rank", "pagerank")
  }

  /** The importance view: all four metrics plus the aggregate score.
    * Degrees and PageRank read one pin of the edges and nodes, and the
    * joined metrics are pinned once, so the maxima and every consumer of
    * the view read them instead of recomputing degrees and PageRank.
    */
  def importanceView(triples: DataFrame, prIterations: Int = 10): DataFrame = {
    val e = Dataflow.pin(edges(triples))
    val ns = Dataflow.pin(nodes(triples))
    val d = degrees(e, ns)
    val ids = identities(triples)
    val pr = pagerank(e, ns, prIterations)
    val joined = Dataflow.pin(d.join(ids, Seq("id"), "left").join(pr, Seq("id"), "left")
      .na.fill(0L, Seq("identities")).na.fill(0.0, Seq("pagerank")))
    val maxes = joined.agg(
      greatest(max("inDegree"), lit(1L)).as("mi"),
      greatest(max("outDegree"), lit(1L)).as("mo"),
      greatest(max("identities"), lit(1L)).as("mid"),
      greatest(max("pagerank"), lit(1e-12)).as("mpr")).first()
    val (mi, mo, mid, mpr) =
      (maxes.getLong(0).toDouble, maxes.getLong(1).toDouble, maxes.getLong(2).toDouble, maxes.getDouble(3))
    joined.select(
      col("id"), col("inDegree"), col("outDegree"), col("identities"), col("pagerank"),
      round(col("inDegree") / mi * 0.2 + col("outDegree") / mo * 0.2 +
            col("identities") / mid * 0.25 + col("pagerank") / mpr * 0.35, 6).as("importance"))
  }
}
