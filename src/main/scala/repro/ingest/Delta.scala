package repro.ingest

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Dataflow

/** Eager delta computation (§2.2/§2.4). When an upstream provider
  * publishes a new version, the ingestion pipeline splits source entities
  * into three partitions relative to the last snapshot consumed by the KG:
  *
  *   - Added:   exist at t_n but not t_0
  *   - Deleted: exist at t_0 but not t_n
  *   - Updated: exist at both and their *stable* payload changed at t_n
  *
  * plus a separate full dump of volatile predicates (e.g. popularity) for
  * *all* current entities — volatile churn is factored out of the deltas
  * so that a popularity tick does not masquerade as an entity update.
  */
object Delta {

  final case class SourceDelta(
      added: DataFrame,
      deleted: DataFrame,
      updated: DataFrame,
      volatileDump: DataFrame,
  ) {
    def counts(): (Long, Long, Long) = (added.count(), deleted.count(), updated.count())
  }

  private val IdCol = "id" // the entity id column `Alignment.align` emits

  /** Stable-payload fingerprint: hash of every column except the id and
    * the volatile columns. Column order is fixed (sorted) so the hash does
    * not depend on projection order.
    */
  private def stableHash(df: DataFrame, volatileCols: Set[String]) = {
    val stable = df.columns.filterNot(c => c == IdCol || volatileCols.contains(c)).sorted
    sha2(to_json(struct(stable.map(col): _*)), 256)
  }

  /** Compute the delta of `cur` versus `prev`.
    *
    * `added`/`updated` carry the full current rows (they flow into
    * construction); `deleted` carries the previous rows (construction
    * needs the old payload to retract provenance). The three are filters
    * of one full outer join of the whole rows on the id, which is unique
    * per snapshot (`EntityTransform`'s integrity checks), materialized
    * here: the ingestion platform computes deltas eagerly (§2.4).
    */
  def compute(prev: DataFrame, cur: DataFrame, volatileCols: Set[String] = Set("volatile")): SourceDelta = {
    require(prev.columns.sorted.sameElements(cur.columns.sorted),
      s"snapshot schemas differ: ${prev.columns.sorted.toSeq} vs ${cur.columns.sorted.toSeq}")

    // Each side's columns, its stable hash included, get the side's prefix.
    def side(df: DataFrame, tag: String) =
      df.withColumn("__h", stableHash(df, volatileCols)).toDF((df.columns :+ "__h").map(tag + _): _*)
    def c(name: String) = col(s"`$name`")
    def rows(df: DataFrame, tag: String) = df.columns.map(n => c(tag + n).as(n))
    val (pid, cid) = (c("__p_" + IdCol), c("__c_" + IdCol))
    val j = Dataflow.pin(side(prev, "__p_").join(side(cur, "__c_"), pid === cid, "full_outer"))

    SourceDelta(
      added        = j.filter(pid.isNull && cid.isNotNull).select(rows(cur, "__c_"): _*),
      deleted      = j.filter(cid.isNull && pid.isNotNull).select(rows(prev, "__p_"): _*),
      updated      = j.filter(pid.isNotNull && cid.isNotNull && c("__p___h") =!= c("__c___h"))
                      .select(rows(cur, "__c_"): _*),
      volatileDump = cur.select((IdCol +: volatileCols.toSeq.sorted.filter(cur.columns.contains)).map(col): _*),
    )
  }

  /** A brand-new source is modeled as a full Added payload with empty
    * Deleted/Updated partitions (§2.4).
    */
  def bootstrap(cur: DataFrame, volatileCols: Set[String] = Set("volatile")): SourceDelta =
    SourceDelta(
      added = cur,
      deleted = cur.limit(0),
      updated = cur.limit(0),
      volatileDump = cur.select((IdCol +: volatileCols.toSeq.sorted.filter(cur.columns.contains)).map(col): _*),
    )
}
