package repro.ingest

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A complete source ingestion pipeline (§2.2, Figure 3): Import →
  * Entity Transform → Ontology Alignment → Delta Computation → Export.
  *
  * Engineers onboard a new source by supplying the importer(s), the
  * transform (a join recipe over artifacts), and the alignment config —
  * the rest (validation, deltas, export) is platform code. This is the
  * "self-serve data onboarding" requirement (§1.5).
  */
final case class IngestPipeline(
    sourceName: String,
    trust: Double,
    importers: Seq[DataSourceImporter],
    primaryArtifact: String,
    idColumn: String,
    /** secondary artifact name → columns to join in */
    joins: Seq[(String, Seq[String])],
    alignment: Alignment.Config,
    volatilePreds: Set[String] = Set.empty,
) {

  /** Output of one pipeline run: per-partition extended triples ready for
    * knowledge construction, plus the aligned snapshot to diff against on
    * the next run.
    */
  final case class Output(
      added: DataFrame, deleted: DataFrame, updated: DataFrame,
      volatileDump: DataFrame, snapshot: DataFrame,
      violations: Seq[EntityTransform.Violation])

  /** Run the pipeline. `prevSnapshot` is the aligned snapshot from the
    * previous run (None for a brand-new source → full Added payload).
    */
  def run(spark: SparkSession, prevSnapshot: Option[DataFrame]): Output = {
    val artifacts: Map[String, DataFrame] =
      importers.map(i => i.artifact -> i.importRows(spark)).toMap
    require(artifacts.contains(primaryArtifact), s"missing primary artifact $primaryArtifact")

    val sourceSchema = artifacts(primaryArtifact).columns.toSeq
    val view = EntityTransform.trimStrings(
      EntityTransform.entityView(
        artifacts(primaryArtifact), idColumn,
        joins.map { case (a, cols) => artifacts(a) -> cols }))
    val violations = EntityTransform.check(view, idColumn, sourceSchema)

    val aligned = Alignment.align(view, alignment)
    val delta = prevSnapshot match {
      case Some(prev) => Delta.compute(prev, aligned, volatilePreds)
      case None       => Delta.bootstrap(aligned, volatilePreds)
    }
    def export(df: DataFrame): DataFrame =
      Export.fromWide(df, sourceName, trust, volatilePreds)._1
    Output(
      added        = export(delta.added),
      deleted      = export(delta.deleted),
      updated      = export(delta.updated),
      volatileDump = Export.fromWide(delta.volatileDump
                       .join(aligned.select("id", "etype"), Seq("id"), "left"),
                       sourceName, trust, volatilePreds)._2,
      snapshot     = aligned,
      violations   = violations,
    )
  }
}
