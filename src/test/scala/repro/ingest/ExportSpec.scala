package repro.ingest

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthKG}
import repro.core.Schema

/** Export to extended triples (§2.2) including one-hop triplication. */
class ExportSpec extends SparkSpec {
  import spark.implicits._

  private lazy val u = SynthKG.universe(4)
  private lazy val recs = SynthKG.sourceRecords(u, SynthKG.sourceConfigs.head, 0)
  private lazy val rows = SynthKG.recordsToRows(spark, recs)
  private lazy val stable = Export.stableTriples(rows)
  private lazy val volat = Export.volatileTriples(rows)

  test("stable triples follow the canonical schema") {
    assert(stable.columns.toSeq == Schema.columns)
  }

  test("every record yields type and name triples") {
    val t = stable.filter(col(Schema.Predicate) === "type").count()
    val n = stable.filter(col(Schema.Predicate) === "name").count()
    assert(t == recs.size && n == recs.size)
  }

  test("composite facts carry relationship ids and predicates (extended triples)") {
    val comp = stable.filter(col(Schema.RId).isNotNull)
    val persons = recs.filter(_.compositePred.contains("educated_at"))
    assert(persons.nonEmpty)
    assert(comp.count() > 0)
    val sampleRid = comp.select(Schema.RId).head().getString(0)
    assert(sampleRid.contains("#r"))
    val rps = comp.select(Schema.RPredicate).distinct().as[String].collect().toSet
    assert(rps.subsetOf(Set("school", "degree", "year", "group", "role", "since")))
  }

  test("the one-hop triplication means no self-joins are needed downstream (§2.4)") {
    // the school of a person is retrievable by a plain filter
    val schools = stable.filter(col(Schema.Predicate) === "educated_at" &&
                                col(Schema.RPredicate) === "school")
    assert(schools.count() > 0)
  }

  test("provenance arrays carry the source and its trust") {
    val src = SynthKG.sourceConfigs.head
    val bad = stable.filter(
      col(Schema.Sources) =!= array(lit(src.name)) ||
      col(Schema.Trust) =!= array(lit(src.trust))).count()
    assert(bad == 0)
  }

  test("no null or empty objects are exported") {
    assert(stable.filter(col(Schema.Obj).isNull || trim(col(Schema.Obj)) === "").count() == 0)
  }

  test("volatile dump contains exactly the popularity facts") {
    assert(volat.count() == recs.size)
    assert(volat.filter(col(Schema.Predicate) =!= "popularity").count() == 0)
  }

  test("volatile facts are excluded from the stable export") {
    assert(stable.filter(col(Schema.Predicate) === "popularity").count() == 0)
  }

  /** Aligned wide rows of one movie source through the platform's
    * align → rows → export path: each `pgfs` target becomes a predicate.
    */
  private def fromWide(wide: DataFrame, pgfs: Seq[Alignment.Pgf],
                       volatilePreds: Set[String] = Set.empty) =
    IngestPipeline(
      sourceName = "moviedb", trust = 0.8,
      importers = Seq(InMemoryImporter("movies", wide)),
      primaryArtifact = "movies", idColumn = "movie_id", joins = Nil,
      alignment = Alignment.Config("movie", "movie_id", pgfs),
      volatilePreds = volatilePreds,
    ).run(spark, None).payload

  test("fromWide melts aligned rows and adds type triples") {
    val wide = Seq(("m1", "The X", "drama")).toDF("movie_id", "title", "genre")
    val out = fromWide(wide, Seq(Alignment.Rename("title", "name"),
                                 Alignment.Rename("genre", "genre")))
    val preds = out.added.select(Schema.Predicate).as[String].collect().toSet
    assert(preds == Set("name", "genre", "type"))
    assert(out.volatileDump.count() == 0)
  }

  test("fromWide routes volatile predicates to the volatile dump") {
    val wide = Seq(("m1", "The X", "0.7")).toDF("movie_id", "title", "box_office")
    val out = fromWide(wide, Seq(Alignment.Rename("title", "name"),
                                 Alignment.Rename("box_office", "box_office")),
                       volatilePreds = Set("box_office"))
    assert(out.added.filter(col(Schema.Predicate) === "box_office").count() == 0)
    assert(out.volatileDump.count() == 1)
  }
}
