package repro.construct

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, Props, SparkSpec}
import repro.core.Schema

/** Fusion (§2.3): outer-join fusion, relationship-node merging, truth
  * discovery, retraction, volatile overwrite.
  */
class FusionSpec extends SparkSpec {
  import spark.implicits._

  private type Triple = (String, String, String, String, String, String, Seq[String], Seq[Double], Double)

  private def t(s: String, p: String, o: String, src: String, trust: Double,
                rid: String = null, rp: String = null): Triple =
    (s, p, rid, rp, o, "en", Seq(src), Seq(trust), trust)

  // ---------------------------------------------------------- consolidate
  test("consolidate merges identical facts from different sources") {
    val df = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "name", "Alpha", "b", 0.8)))
    val out = Fusion.consolidate(df).collect()
    assert(out.length == 1)
    assert(out.head.getSeq[String](out.head.fieldIndex("sources")) == Seq("a", "b"))
  }

  test("consolidate computes noisy-or confidence") {
    val df = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "name", "Alpha", "b", 0.8)))
    val conf = Fusion.consolidate(df).head().getAs[Double]("conf")
    assert(math.abs(conf - (1 - 0.1 * 0.2)) < 1e-6)
  }

  test("consolidate keeps distinct objects separate (no value merging)") {
    val df = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "name", "Beta", "b", 0.8)))
    assert(Fusion.consolidate(df).count() == 2)
  }

  test("consolidate dedupes a source asserting the same fact twice") {
    val df = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "name", "Alpha", "a", 0.7)))
    val out = Fusion.consolidate(df).head()
    assert(out.getSeq[String](out.fieldIndex("sources")) == Seq("a"))
    assert(out.getSeq[Double](out.fieldIndex("trust")) == Seq(0.9)) // max kept
  }

  test("consolidate matches the DuckDB two-level GROUP BY row for row (property)") {
    // Few fact keys and sources, so keys repeat across rows and a source
    // repeats within a key (and within one row) with different trust.
    val row = for {
      s     <- Gen.oneOf("kg:1", "kg:2")
      o     <- Gen.oneOf("Alpha", "Beta")
      rid   <- Gen.option(Gen.const("kg:1#r0"))
      loc   <- Gen.option(Gen.const("en"))
      n     <- Gen.choose(1, 3)
      srcs  <- Gen.listOfN(n, Gen.oneOf("a", "b", "c"))
      trust <- Gen.listOfN(n, Gen.oneOf(0.5, 0.7, 0.8, 0.9))
    } yield (s, "name", rid.orNull, rid.map(_ => "school").orNull, o, loc.orNull, srcs, trust, 0.0)
    val keyCols = Schema.factKey.map(col)
    Props.check(Prop.forAllNoShrink(Gen.choose(1, 12).flatMap(Gen.listOfN(_, row))) { rows =>
      val exploded = rows.flatMap { case (s, p, ri, rp, o, loc, srcs, trust, _) =>
        srcs.zip(trust).map { case (src, t) => (s, p, ri, rp, o, loc, src, t.toString) }
      }.toDF(Schema.factKey :+ "src" :+ "trust": _*)
      Oracle.assertEquivalent(
        Fusion.consolidate(Schema.fromTuples(spark, rows)).select(keyCols ++ Seq(
          concat_ws(",", col(Schema.Sources)).as("srcs"),
          concat_ws(",", col(Schema.Trust).cast("array<string>")).as("trusts"),
          col(Schema.Conf)): _*),
        """SELECT subject, predicate, r_id, r_predicate, obj, locale,
                  string_agg(src, ',' ORDER BY src) AS srcs,
                  string_agg(CAST(t AS VARCHAR), ',' ORDER BY src) AS trusts,
                  round(1 - product(1 - t), 6) AS conf
           FROM (SELECT subject, predicate, r_id, r_predicate, obj, locale, src,
                        max(CAST(trust AS DOUBLE)) AS t
                 FROM st GROUP BY subject, predicate, r_id, r_predicate, obj, locale, src)
           GROUP BY subject, predicate, r_id, r_predicate, obj, locale""",
        "st" -> exploded)
      true
    }, minTests = 20)
  }

  // ----------------------------------------------------------------- fuse
  test("fuse implements outer-join semantics for simple facts") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "birth_year", "1960", "a", 0.9)))
    val in = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "b", 0.8),     // existing fact: provenance union
      t("kg:1", "occupation", "actor", "b", 0.8))) // new fact: added
    val out = Fusion.fuse(kg, in)
    assert(out.count() == 3)
    val name = out.filter(col(Schema.Predicate) === "name").head()
    assert(name.getSeq[String](name.fieldIndex("sources")) == Seq("a", "b"))
  }

  test("fuse result matches the DuckDB oracle for fact-key union") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:2", "name", "Beta", "a", 0.9)))
    val in = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "b", 0.8),
      t("kg:2", "genre", "rock", "b", 0.8)))
    Oracle.assertEquivalent(
      Fusion.fuse(kg, in).select("subject", "predicate", "obj"),
      """SELECT DISTINCT subject, predicate, obj FROM (
           SELECT subject, predicate, obj FROM kg
           UNION ALL SELECT subject, predicate, obj FROM src)""",
      "kg" -> kg.select("subject", "predicate", "obj"),
      "src" -> in.select("subject", "predicate", "obj"))
  }

  // ------------------------------------------------- relationship nodes
  test("source relationship node merges into an overlapping KG node") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:1", "educated_at", "UW", "a", 0.9, rid = "kg:1#r0", rp = "school"),
      t("kg:1", "educated_at", "PhD", "a", 0.9, rid = "kg:1#r0", rp = "degree"),
      t("kg:1", "educated_at", "2005", "a", 0.9, rid = "kg:1#r0", rp = "year")))
    val in = Schema.fromTuples(spark, Seq(
      t("kg:1", "educated_at", "UW", "b", 0.8, rid = "w:9#r0", rp = "school"),
      t("kg:1", "educated_at", "PhD", "b", 0.8, rid = "w:9#r0", rp = "degree")))
    val out = Fusion.fuse(kg, in)
    // merged: same r_id, union of facts, merged provenance on overlaps
    assert(out.select(Schema.RId).distinct().count() == 1)
    assert(out.count() == 3)
    val school = out.filter(col(Schema.RPredicate) === "school").head()
    assert(school.getSeq[String](school.fieldIndex("sources")) == Seq("a", "b"))
  }

  test("insufficient overlap adds a new relationship node") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:1", "educated_at", "UW", "a", 0.9, rid = "kg:1#r0", rp = "school"),
      t("kg:1", "educated_at", "PhD", "a", 0.9, rid = "kg:1#r0", rp = "degree")))
    val in = Schema.fromTuples(spark, Seq(
      t("kg:1", "educated_at", "MIT", "b", 0.8, rid = "w:9#r0", rp = "school"),
      t("kg:1", "educated_at", "BSc", "b", 0.8, rid = "w:9#r0", rp = "degree")))
    val out = Fusion.fuse(kg, in)
    assert(out.select(Schema.RId).distinct().count() == 2)
    assert(out.count() == 4)
  }

  test("duplicate source records mint the same new relationship node") {
    val kg = Schema.emptyTriples(spark)
    val in = Schema.fromTuples(spark, Seq(
      t("kg:1", "educated_at", "UW", "b", 0.8, rid = "w:1#r0", rp = "school"),
      t("kg:1", "educated_at", "PhD", "b", 0.8, rid = "w:1#r0", rp = "degree"),
      t("kg:1", "educated_at", "UW", "b", 0.8, rid = "w:2#r0", rp = "school"),
      t("kg:1", "educated_at", "PhD", "b", 0.8, rid = "w:2#r0", rp = "degree")))
    val out = Fusion.fuse(kg, in)
    assert(out.select(Schema.RId).distinct().count() == 1)
    assert(out.count() == 2)
  }

  test("fuse(kg, a, b) equals fuse(fuse(kg, a), b) row for row (property)") {
    // Each subject's relationship nodes (one predicate) draw from a small
    // fact pool, so the nodes of the KG, `a` and `b` overlap partially and
    // a node of `b` can match a node only `a` brought in. Subjects fuse
    // independently, so each case packs eight of them into one evaluation.
    val fact = for (rp <- Gen.oneOf("school", "degree", "year"); v <- Gen.oneOf("x", "y")) yield (rp, v)
    val node = Gen.choose(1, 3).flatMap(Gen.listOfN(_, fact)).map(_.distinct)
    def entity(sources: Gen[String], rid: String, e: Int) = for {
      src   <- sources
      trust <- Gen.oneOf(0.5, 0.7, 0.9)
      nodes <- Gen.choose(0, 2).flatMap(Gen.listOfN(_, node))
      names <- Gen.someOf("Alpha", "Beta")
    } yield nodes.zipWithIndex.flatMap { case (facts, i) =>
      facts.map { case (rp, v) => t(s"kg:$e", "educated_at", v, src, trust, rid = s"$rid$e#r$i", rp = rp) }
    } ++ names.map(t(s"kg:$e", "name", _, src, trust))
    def batch(sources: Gen[String], rid: String) =
      Gen.sequence[Seq[Seq[Triple]], Seq[Triple]]((1 to 8).map(entity(sources, rid, _))).map(_.flatten)
    def rows(df: DataFrame): Seq[String] = df.collect().map(_.toString).sorted.toSeq
    Props.check(Prop.forAllNoShrink(batch(Gen.oneOf("k", "a"), "kg:"), batch(Gen.const("a"), "a:"),
                                    batch(Gen.oneOf("a", "b"), "b:")) { (k, a, b) =>
      val Seq(kg, da, db) = Seq(k, a, b).map(Schema.fromTuples(spark, _))
      rows(Fusion.fuse(kg, da, db)) == rows(Fusion.fuse(Fusion.fuse(kg, da), db))
    }, minTests = 8)
  }

  // ------------------------------------------------------------ retract
  test("retractSource removes the source from provenance of target subjects") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:2", "name", "Beta", "a", 0.9)))
    val fused = Fusion.fuse(kg, Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "b", 0.8))))
    val out = Fusion.retractSource(fused, "a", Seq("kg:1"))
    val r1 = out.filter(col(Schema.Subject) === "kg:1").head()
    assert(r1.getSeq[String](r1.fieldIndex("sources")) == Seq("b"))
    // untouched subject keeps its provenance
    val r2 = out.filter(col(Schema.Subject) === "kg:2").head()
    assert(r2.getSeq[String](r2.fieldIndex("sources")) == Seq("a"))
  }

  test("retractSource drops facts with no remaining provenance") {
    val kg = Schema.fromTuples(spark, Seq(t("kg:1", "name", "Alpha", "a", 0.9)))
    val out = Fusion.retractSource(kg, "a", Seq("kg:1"))
    assert(out.count() == 0)
  }

  test("retraction recomputes confidence from the remaining provenance") {
    val kg = Fusion.fuse(
      Schema.fromTuples(spark, Seq(t("kg:1", "name", "Alpha", "a", 0.9))),
      Schema.fromTuples(spark, Seq(t("kg:1", "name", "Alpha", "b", 0.8))))
    val out = Fusion.retractSource(kg, "a", Seq("kg:1"))
    assert(math.abs(out.head().getAs[Double]("conf") - 0.8) < 1e-6)
  }

  test("retractSource matches source names with quotes and backslashes literally") {
    val names = Seq("o'reilly", """c:\data""")
    val kg = Fusion.consolidate(Schema.fromTuples(spark,
      names.map(t("kg:1", "name", "Alpha", _, 0.9)) :+ t("kg:1", "name", "Alpha", "b", 0.8)))
    val out = names.foldLeft(kg)(Fusion.retractSource(_, _, Seq("kg:1")))
    val r = out.head()
    assert(r.getSeq[String](r.fieldIndex("sources")) == Seq("b"))
  }

  // ------------------------------------------------------------ volatile
  test("overwriteVolatilePartition replaces only the source's partition") {
    val vol = Schema.fromTuples(spark, Seq(
      t("kg:1", "popularity", "0.5", "a", 0.9),
      t("kg:2", "popularity", "0.6", "b", 0.8)))
    val dump = Schema.fromTuples(spark, Seq(
      t("kg:1", "popularity", "0.7", "a", 0.9)))
    val out = Fusion.overwriteVolatilePartition(vol, "a", dump)
    assert(out.count() == 2)
    val v1 = out.filter(col(Schema.Subject) === "kg:1").head().getAs[String]("obj")
    assert(v1 == "0.7")
    val v2 = out.filter(col(Schema.Subject) === "kg:2").head().getAs[String]("obj")
    assert(v2 == "0.6")
  }

  test("overwrite with an empty dump clears the partition (source gone)") {
    val vol = Schema.fromTuples(spark, Seq(t("kg:1", "popularity", "0.5", "a", 0.9)))
    val out = Fusion.overwriteVolatilePartition(vol, "a", Schema.emptyTriples(spark))
    assert(out.count() == 0)
  }

  // ------------------------------------------------------ truth discovery
  test("truth discovery: agreement beats a lone dissenter") {
    val kg = Fusion.consolidate(Schema.fromTuples(spark, Seq(
      t("kg:1", "birth_year", "1960", "a", 0.9),
      t("kg:1", "birth_year", "1960", "b", 0.8),
      t("kg:1", "birth_year", "1971", "c", 0.5))))
    val out = Fusion.truthDiscovery(kg, iterations = 2)
    val conf1960 = out.filter(col(Schema.Obj) === "1960").head().getAs[Double]("conf")
    val conf1971 = out.filter(col(Schema.Obj) === "1971").head().getAs[Double]("conf")
    assert(conf1960 > conf1971)
    assert(conf1960 > 0.6 && conf1971 < 0.4)
  }

  test("truth discovery: conflicting confidences sum to ~1 per slot") {
    val kg = Fusion.consolidate(Schema.fromTuples(spark, Seq(
      t("kg:1", "birth_year", "1960", "a", 0.9),
      t("kg:1", "birth_year", "1971", "c", 0.5))))
    val confs = Fusion.truthDiscovery(kg).select("conf").as[Double].collect()
    assert(math.abs(confs.sum - 1.0) < 1e-4)
  }

  test("truth discovery: unconflicted facts keep high confidence") {
    val kg = Fusion.consolidate(Schema.fromTuples(spark, Seq(
      t("kg:1", "name", "Alpha", "a", 0.9),
      t("kg:1", "name", "Alpha", "b", 0.8))))
    val conf = Fusion.truthDiscovery(kg).head().getAs[Double]("conf")
    assert(conf > 0.8)
  }

  test("truth discovery: source reliability feeds back — the chronic dissenter is downweighted") {
    // source c disagrees with the a+b consensus on many slots
    val rows = (1 to 8).flatMap { i =>
      Seq(
        t(s"kg:$i", "birth_year", "1960", "a", 0.7),
        t(s"kg:$i", "birth_year", "1960", "b", 0.7),
        t(s"kg:$i", "birth_year", "1999", "c", 0.7))
    }
    val out = Fusion.truthDiscovery(Fusion.consolidate(Schema.fromTuples(spark, rows)), iterations = 3)
    val wrongConf = out.filter(col(Schema.Obj) === "1999").select("conf").as[Double].collect()
    // after reliability iteration, c's votes are worth less than 1/3
    assert(wrongConf.forall(_ < 0.3), wrongConf.mkString(","))
  }

  test("truth discovery leaves multi-valued predicates untouched") {
    val kg = Fusion.consolidate(Schema.fromTuples(spark, Seq(
      t("kg:1", "alias", "Al", "a", 0.9),
      t("kg:1", "alias", "Big Al", "b", 0.8))))
    val out = Fusion.truthDiscovery(kg)
    assert(out.count() == 2)
    assert(out.select("conf").as[Double].collect().forall(_ > 0.7))
  }
}
