package repro.ingest

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.construct.{Construction, Matching}
import repro.core.{Ontology, Schema}

/** The full self-serve ingestion pipeline (§2.2, Figure 3): Import →
  * Transform → Align → Delta → Export, built from the platform templates.
  */
class IngestPipelineSpec extends SparkSpec {
  import spark.implicits._

  private def rawMovies(version: Int) = {
    val base = Seq(
      ("m1", "The Silent Horizon", "2", "thriller", "2001", "7.9"),
      ("m2", "Crimson Empire", null, "drama", "1999", "8.1"),
      ("m3", "Velvet Voyage", null, "comedy", "2005", "6.5"),
    )
    val v2 = Seq(
      ("m1", "The Silent Horizon", "2", "thriller", "2001", "8.0"), // volatile only
      ("m2", "Crimson Empire II", null, "drama", "1999", "8.1"),    // stable update
      ("m4", "Burning Harvest", null, "drama", "2021", "7.0"),      // added (m3 deleted)
    )
    (if (version == 0) base else v2)
      .toDF("movie_id", "title", "sequel_number", "category", "year", "score")
  }

  private def ratings() = Seq(("m1", "PG"), ("m2", "R"), ("m3", "PG"), ("m4", "PG"))
    .toDF("movie_id", "rating")

  private def pipeline(version: Int): IngestPipeline = pipeline("moviedb", rawMovies(version))

  private def pipeline(source: String, movies: DataFrame): IngestPipeline = IngestPipeline(
    sourceName = source, trust = 0.8,
    importers = Seq(
      InMemoryImporter("movies", movies),
      InMemoryImporter("ratings", ratings())),
    primaryArtifact = "movies",
    idColumn = "movie_id",
    joins = Seq(("ratings", Seq("rating"))),
    alignment = Alignment.Config("movie", "movie_id", Seq(
      Alignment.Rename("title", "name"),
      Alignment.Rename("category", "genre"),
      Alignment.Rename("year", "release_year"),
      Alignment.Rename("rating", "rating"),
      Alignment.Rename("score", "box_office"), // stand-in volatile-ish metric
      Alignment.Combine(Seq("title", "sequel_number"), "full_title"))),
    volatilePreds = Set("box_office"),
  )

  test("bootstrap run: everything is Added, nothing Deleted/Updated") {
    val out = pipeline(0).run(spark, None)
    assert(out.violations.isEmpty)
    assert(out.payload.added.select(Schema.Subject).distinct().count() == 3)
    assert(out.payload.deleted.count() == 0 && out.payload.updated.count() == 0)
  }

  test("export is in the KG ontology namespace with source-namespace subjects") {
    val out = pipeline(0).run(spark, None)
    val preds = out.payload.added.select(Schema.Predicate).as[String].collect().toSet
    assert(preds == Set("type", "name", "genre", "release_year", "rating", "full_title"))
    val subs = out.payload.added.select(Schema.Subject).as[String].collect().toSet
    assert(subs == Set("moviedb:m1", "moviedb:m2", "moviedb:m3"))
  }

  test("a null aligned value yields no triple") { // m5 has no category and no rating
    val movies = rawMovies(0).union(
      Seq(("m5", "Quiet Orchard", null, null, "2010", "5.0")).toDF(rawMovies(0).columns.toSeq: _*))
    val m5 = pipeline("moviedb", movies).run(spark, None).payload.added
      .filter(col(Schema.Subject) === "moviedb:m5")
    assert(m5.select(Schema.Predicate).as[String].collect().toSet ==
      Set("type", "name", "release_year", "full_title"))
  }

  test("secondary artifact columns are joined into the entity view") {
    val out = pipeline(0).run(spark, None)
    val rating = out.payload.added.filter(col(Schema.Predicate) === "rating" &&
                                  col(Schema.Subject) === "moviedb:m2")
    assert(rating.head().getAs[String](Schema.Obj) == "R")
  }

  test("volatile predicates land in the volatile dump, not the stable export") {
    val out = pipeline(0).run(spark, None)
    assert(out.payload.added.filter(col(Schema.Predicate) === "box_office").count() == 0)
    assert(out.payload.volatileDump.filter(col(Schema.Predicate) === "box_office").count() == 3)
  }

  test("second run against the snapshot computes correct deltas") {
    val run0 = pipeline(0).run(spark, None)
    val run1 = pipeline(1).run(spark, Some(run0.snapshot))
    val added = run1.payload.added.select(Schema.Subject).as[String].collect().toSet
    val deleted = run1.payload.deleted.select(Schema.Subject).as[String].collect().toSet
    val updated = run1.payload.updated.select(Schema.Subject).as[String].collect().toSet
    assert(added == Set("moviedb:m4"))
    assert(deleted == Set("moviedb:m3"))
    assert(updated == Set("moviedb:m2"))
  }

  test("volatile-only change does not produce an update") {
    val run0 = pipeline(0).run(spark, None)
    val run1 = pipeline(1).run(spark, Some(run0.snapshot))
    assert(!run1.payload.updated.select(Schema.Subject).as[String].collect().contains("moviedb:m1"))
    // but the new volatile value ships in the dump
    val m1Vol = run1.payload.volatileDump.filter(col(Schema.Subject) === "moviedb:m1" &&
      col(Schema.Predicate) === "box_office").head().getAs[String](Schema.Obj)
    assert(m1Vol == "8.0")
  }

  test("violations are reported, not thrown (quarantine semantics)") {
    val dupes = Seq(("m1", "A", null, "x", "2000", "1"), ("m1", "B", null, "y", "2001", "2"))
      .toDF("movie_id", "title", "sequel_number", "category", "year", "score")
    val p = pipeline(0).copy(importers = Seq(
      InMemoryImporter("movies", dupes), InMemoryImporter("ratings", ratings())))
    val out = p.run(spark, None)
    assert(out.violations.exists(_.check == "unique-ids"))
  }

  test("a row with a null or blank id is reported and never reaches the payload") {
    val movies = rawMovies(0).union(Seq(
      (null: String, "Nameless", null, "drama", "2000", "1.0"),
      ("  ", "Blank", null, "drama", "2000", "1.0"),
    ).toDF(rawMovies(0).columns.toSeq: _*))
    val out = pipeline("moviedb", movies).run(spark, None)
    assert(out.violations.exists(_.check == "id-predicate"))
    val p = out.payload
    val subs = Seq(p.added, p.volatileDump).map(_.select(Schema.Subject).as[String].collect().toSet)
    assert(subs.forall(_ == Set("moviedb:m1", "moviedb:m2", "moviedb:m3")))
  }

  test("a joined artifact that no importer produces is a clear config error") {
    val e = intercept[IllegalArgumentException] {
      pipeline(0).copy(joins = Seq(("reviews", Seq("stars"))))
    }
    assert(e.getMessage.contains("reviews"))
  }

  test("two importers of the same artifact are a clear config error") {
    val e = intercept[IllegalArgumentException] {
      pipeline(0).copy(importers = Seq(InMemoryImporter("movies", rawMovies(0)),
        InMemoryImporter("movies", rawMovies(1)), InMemoryImporter("ratings", ratings())))
    }
    assert(e.getMessage.contains("movies"))
  }

  test("sources with overlapping raw ids stay apart through construction") {
    val films = Seq(
      ("m1", "Northern Lantern", null, "documentary", "2011", "5.5"),
      ("m2", "Copper Tide", "3", "western", "1987", "6.1"),
    ).toDF(rawMovies(0).columns.toSeq: _*)
    val payloads = Seq(pipeline(0), pipeline("filmdb", films)).map(_.run(spark, None).payload)
    val kg = payloads.foldLeft(Construction.KGState.empty(spark)) { (st, p) =>
      Construction.consume(st, p, Matching.defaultModel(None))._1
    }
    val links = kg.links.as[(String, String)].collect().toSeq
    assert(links.map(_._1).sorted ==
      Seq("filmdb:m1", "filmdb:m2", "moviedb:m1", "moviedb:m2", "moviedb:m3"))
    assert(links.map(_._2).distinct.size == links.size, s"movies share a KG entity: $links")
    val names = kg.stable.filter(col(Schema.Predicate) === Ontology.NamePred)
      .groupBy(Schema.Subject).agg(countDistinct(Schema.Obj).as("n")).as[(String, Long)].collect()
    assert(names.length == links.size && names.forall(_._2 == 1))
    val sameAs = kg.stable.filter(col(Schema.Predicate) === Ontology.SameAs)
      .select(Schema.Obj, Schema.Sources).as[(String, Seq[String])].collect().toMap
    assert(sameAs == links.map { case (src, _) => src -> Seq(src.takeWhile(_ != ':')) }.toMap)
  }

  test("CSV importer template reads header files") {
    val dir = Files.createTempDirectory("csvimp").toFile
    val f = new java.io.File(dir, "part.csv")
    val w = new java.io.PrintWriter(f)
    w.println("movie_id,title"); w.println("m9,Test Movie"); w.close()
    val df = CsvImporter("movies", f.getAbsolutePath).importRows(spark)
    assert(df.columns.toSeq == Seq("movie_id", "title"))
    assert(df.count() == 1)
  }

  test("JSON importer template reads json-lines") {
    val dir = Files.createTempDirectory("jsonimp").toFile
    val f = new java.io.File(dir, "part.json")
    val w = new java.io.PrintWriter(f)
    w.println("""{"movie_id":"m9","title":"Test Movie"}"""); w.close()
    val df = JsonImporter("movies", f.getAbsolutePath).importRows(spark)
    assert(df.count() == 1)
    assert(df.select("title").head().getString(0) == "Test Movie")
  }

  test("Parquet importer roundtrips a written artifact") {
    val dir = Files.createTempDirectory("pqimp").resolve("data").toString
    rawMovies(0).write.parquet(dir)
    val df = ParquetImporter("movies", dir).importRows(spark)
    assert(df.count() == 3)
  }
}
