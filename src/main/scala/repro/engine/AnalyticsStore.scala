package repro.engine

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.Schema

/** The analytics engine of the Graph Engine (§3.1.1): a read-optimized
  * relational warehouse over the KG extended triples that computes
  * subgraph and schematized entity views for upstream tasks.
  *
  * The "optimized join processing" behind Figure 8 is modeled as a shared
  * entity-pivot base relation: all of an entity's simple and one-hop
  * composite facts pivoted into one row, materialized once and reused by
  * every view. The legacy comparator (the paper's "custom Spark jobs")
  * schematizes each view independently with one shuffle join per
  * predicate column over the raw triples.
  *
  * Both paths produce *identical* relations (tests verify against the
  * DuckDB oracle), differing only in physical execution — exactly the
  * contrast the paper's Figure 8 measures.
  */
object AnalyticsStore {

  /** Column name for a (possibly composite) predicate: `educated_at.school`
    * → `educated_at_school`.
    */
  def colName(pred: String): String = pred.replace('.', '_')

  /** The shared base pivot: one row per subject with a property map over
    * simple predicates and flattened `pred.r_predicate` composite keys.
    * Multi-valued slots resolve to the minimum object (deterministic).
    */
  def basePivot(triples: DataFrame): DataFrame = {
    val simple = triples.filter(col(Schema.RId).isNull)
      .groupBy(col(Schema.Subject), col(Schema.Predicate))
      .agg(min(Schema.Obj).as("v"))
    val composite = triples.filter(col(Schema.RId).isNotNull)
      .select(col(Schema.Subject),
              Schema.flatPredicate.as(Schema.Predicate),
              col(Schema.Obj))
      .groupBy(col(Schema.Subject), col(Schema.Predicate))
      .agg(min(Schema.Obj).as("v"))
    simple.unionByName(composite)
      .groupBy(col(Schema.Subject))
      .agg(map_from_entries(sort_array(collect_list(struct(col(Schema.Predicate), col("v")))))
             .as("props"))
  }

  /** Optimized schematized entity view from the shared pivot: a filter +
    * map projection — no joins.
    */
  def entityView(pivot: DataFrame, etype: String, preds: Seq[String]): DataFrame =
    project(pivot.filter(ofType(etype)), preds)

  private def ofType(etype: String): Column = col("props").getItem("type") === etype

  /** The view's columns: the entity id and one column per predicate. */
  private def project(pivot: DataFrame, preds: Seq[String]): DataFrame =
    pivot.select(col(Schema.Subject).as("id") +:
                   preds.map(p => col("props").getItem(p).as(colName(p))): _*)

  /** Legacy schematized entity view: per-view Spark job over the raw
    * triples — one shuffle join per predicate column, nothing shared
    * across views.
    */
  def legacyEntityView(triples: DataFrame, etype: String, preds: Seq[String]): DataFrame = {
    val subjects = triples
      .filter(col(Schema.Predicate) === "type" && col(Schema.Obj) === etype && col(Schema.RId).isNull)
      .select(col(Schema.Subject).as("id")).distinct()
    preds.foldLeft(subjects) { (acc, p) =>
      val predDf =
        if (p.contains('.')) {
          val Array(p0, p1) = p.split("\\.", 2)
          triples.filter(col(Schema.Predicate) === p0 && col(Schema.RPredicate) === p1)
        } else {
          triples.filter(col(Schema.Predicate) === p && col(Schema.RId).isNull)
        }
      acc.join(
        predDf.groupBy(col(Schema.Subject).as("id")).agg(min(Schema.Obj).as(colName(p))),
        Seq("id"), "left")
    }
  }

  /** A stateful analytics store behind an orchestration agent: replays
    * full-snapshot operations (the construction pipeline is the sole
    * producer; updates are batched for this read-optimized engine).
    *
    * The physical layout is built at ingest time: the shared entity
    * pivot, partitioned by entity type — so a schematized view is a pure
    * projection of an already-materialized per-type relation. This is
    * the "optimized join processing" the paper credits for Figure 8.
    *
    * The store caches where the rest of the Graph Engine pins: its
    * relations are read again and again by narrow projections, and
    * Spark's in-memory columnar cache serves those 2–2.5× faster than
    * the row RDD a pin keeps (at scale 600 on 4 cores, a median 0.18 s
    * against 0.43 s per `view("musician", ...).count()`). Views computed
    * once and read a few times, like importance, are pinned instead.
    */
  final class Store extends OpLog.OrchestrationAgent {
    val storeName = "analytics"
    @volatile private var current: Option[DataFrame] = None
    @volatile private var pivotCache: Option[DataFrame] = None
    private val typed = new java.util.concurrent.ConcurrentHashMap[String, DataFrame]()
    private val staged = new java.util.concurrent.ConcurrentHashMap[String, DataFrame]()

    /** Stage a payload in the "object store" under a reference. */
    def stage(ref: String, df: DataFrame): Unit = staged.put(ref, df)

    def replay(op: OpLog.Op): Unit = op.kind match {
      case "snapshot" =>
        current = Option(staged.get(op.payloadRef))
        pivotCache.foreach(_.unpersist())
        pivotCache = None
        typed.forEach((_, df) => df.unpersist())
        typed.clear()
      case other => throw new IllegalArgumentException(s"analytics store cannot replay '$other'")
    }

    def triples: DataFrame =
      current.getOrElse(throw new IllegalStateException("no snapshot replayed yet"))

    /** The materialized shared pivot (built lazily, cached). */
    def pivot: DataFrame = synchronized {
      pivotCache match {
        case Some(p) => p
        case None =>
          val p = basePivot(triples).cache()
          p.count() // materialize eagerly: the store is read-optimized
          pivotCache = Some(p)
          p
      }
    }

    /** The per-type partition of the pivot, materialized on first use.
      * Coalesced to a few partitions: a cached plan keeps its 64 shuffle
      * partitions (`spark.sql.optimizer.canChangeCachedPlanOutputPartitioning`
      * is false, so adaptive execution cannot shrink them), and serving
      * projections of a modest relation should not pay 64 tasks each.
      */
    def typedPivot(etype: String): DataFrame =
      typed.computeIfAbsent(etype, { t =>
        val df = pivot.filter(ofType(t)).coalesce(8).cache()
        df.count()
        df
      })

    def view(etype: String, preds: Seq[String]): DataFrame = project(typedPivot(etype), preds)
  }
}
