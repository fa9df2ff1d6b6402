package repro.core

import org.apache.spark.sql.DataFrame

/** Dataflow utilities shared by the construction pipelines and the
  * Graph Engine.
  */
object Dataflow {

  /** Materialize a DataFrame and cut BOTH its lineage and its Catalyst
    * statistics history. This is the one way a derived relation is
    * materialized for reuse, in construction and in the Graph Engine's
    * views alike; only the analytics store's read-optimized layout is
    * cached instead (see `AnalyticsStore.Store`).
    *
    * Why not `localCheckpoint` alone: `Dataset.localCheckpoint` snapshots
    * the *optimized plan's statistics* into the resulting `LogicalRDD`.
    * The iterative construction pipeline composes joins batch over batch,
    * and Catalyst's size-only estimator multiplies child sizes at every
    * join — so the propagated estimates compound exponentially and the
    * driver ends up grinding through BigInteger arithmetic with millions
    * of digits during planning. Rebuilding the frame from the
    * materialized RDD resets the estimate to
    * `spark.sql.defaultSizeInBytes` (configured to a modest value by the
    * session builders), keeping every plan's stats bounded.
    */
  def pin(df: DataFrame): DataFrame = {
    val spark = df.sparkSession
    val rdd = df.rdd.localCheckpoint()
    rdd.count()
    spark.createDataFrame(rdd, df.schema)
  }
}
