package repro.ingest

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.construct.Construction
import repro.core.Ontology

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
  private val produced = importers.map(_.artifact)
  produced.distinct.foreach(a =>
    require(produced.count(_ == a) == 1, s"artifact $a is produced by more than one importer"))
  (primaryArtifact +: joins.map(_._1)).foreach(a =>
    require(produced.contains(a), s"no importer produces artifact $a"))

  /** Run the pipeline. `prevSnapshot` is the snapshot from the previous
    * run (None for a brand-new source → full Added payload).
    */
  def run(spark: SparkSession, prevSnapshot: Option[DataFrame]): IngestPipeline.Output = {
    val artifacts = importers.map(i => i.artifact -> i.importRows(spark)).toMap
    val sourceSchema = artifacts(primaryArtifact).columns.toSeq
    val view = EntityTransform.trimStrings(
      EntityTransform.entityView(
        artifacts(primaryArtifact), idColumn,
        joins.map { case (a, cols) => artifacts(a) -> cols }))
    val violations = EntityTransform.check(view, idColumn, sourceSchema)
    val cur = rows(Alignment.align(view, alignment))
    IngestPipeline.Output(IngestPipeline.payload(sourceName, prevSnapshot, cur), cur, violations)
  }

  /** Wide aligned rows → entity-centric rows ([[Export.RowSchema]]): the
    * id in the `<sourceName>:` namespace, the `name` target as the name,
    * the `volatilePreds` targets in `volatile` and every other target in
    * `attrs`. A row with a null or blank id has no subject to export and
    * is dropped; the `id-predicate` check reports it.
    */
  private def rows(aligned: DataFrame): DataFrame = {
    val targets = alignment.pgfs.map(_.target)
    def predMap(preds: Seq[String]) = map(preds.flatMap(p => Seq(lit(p), col(p))): _*)
    val given = Map(
      "id" -> concat(lit(sourceName + ":"), col("id")),
      "source" -> lit(sourceName),
      "trust" -> lit(trust),
      "etype" -> col("etype"),
      "name" -> (if (targets.contains(Ontology.NamePred)) col(Ontology.NamePred) else lit(null)),
      "attrs" -> predMap(targets.filterNot(p => p == Ontology.NamePred || volatilePreds(p))),
      "volatile" -> predMap(targets.filter(volatilePreds)))
    aligned
      .filter(col("id").isNotNull && trim(col("id")) =!= "")
      .select(Export.RowSchema.map(f =>
        given.getOrElse(f.name, lit(null)).cast(f.dataType).as(f.name)): _*)
  }
}

object IngestPipeline {

  /** Output of one pipeline run: the construction payload, the
    * entity-centric snapshot to diff against on the next run, and the
    * integrity violations of the source's entity view.
    */
  final case class Output(
      payload: Construction.SourcePayload, snapshot: DataFrame,
      violations: Seq[EntityTransform.Violation])

  /** The platform's delta-and-export tail, shared by every source:
    * entity-centric rows of the previous snapshot (None for a brand-new
    * source) and of the current one → a construction payload of extended
    * triples in the source namespace.
    */
  def payload(source: String, prev: Option[DataFrame], cur: DataFrame): Construction.SourcePayload = {
    val delta = prev.fold(Delta.bootstrap(cur))(Delta.compute(_, cur))
    Construction.SourcePayload(
      source = source,
      added = Export.stableTriples(delta.added),
      deleted = Export.stableTriples(delta.deleted),
      updated = Export.stableTriples(delta.updated),
      volatileDump = Export.volatileTriples(
        delta.volatileDump.join(cur.drop("volatile"), Seq("id"))),
    )
  }
}
