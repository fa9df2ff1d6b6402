package repro.engine

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{Oracle, Props, SparkSpec}
import repro.core.Schema

/** Entity importance (§3.3): degrees, identities, PageRank, aggregate. */
class ImportanceSpec extends SparkSpec {
  import spark.implicits._

  // a small star graph: hub ← s1, s2, s3; hub → t
  private def kg() = Schema.fromTuples(spark,
    Seq(
      ("kg:hub", "name", null, null, "Hub", "en", Seq("a", "b"), Seq(0.9, 0.8), 0.9),
      ("kg:hub", "linked", null, null, "kg:t", "en", Seq("a"), Seq(0.9), 0.9),
      ("kg:t", "name", null, null, "T", "en", Seq("a"), Seq(0.9), 0.9),
    ) ++ (1 to 3).map(i =>
      (s"kg:s$i", "ref", null: String, null: String, "kg:hub", "en", Seq("a"), Seq(0.9), 0.9))
  )

  test("edges extracts only entity-to-entity facts") {
    val e = Importance.edges(kg()).as[(String, String)].collect().toSet
    assert(e == Set(("kg:hub", "kg:t"), ("kg:s1", "kg:hub"), ("kg:s2", "kg:hub"), ("kg:s3", "kg:hub")))
  }

  test("self-loops are excluded from edges") {
    val df = Schema.fromTuples(spark, Seq(
      ("kg:a", "ref", null, null, "kg:a", "en", Seq("s"), Seq(0.9), 0.9)))
    assert(Importance.edges(df).count() == 0)
  }

  test("degrees: the hub has in-degree 3 and out-degree 1") {
    val d = Importance.degrees(kg()).collect().map(r =>
      r.getString(0) -> (r.getLong(1), r.getLong(2))).toMap
    assert(d("kg:hub") == ((1L, 3L))) // (outDegree, inDegree)
  }

  test("degrees default to zero for isolated subjects") {
    val d = Importance.degrees(kg()).filter(col("id") === "kg:s1").head()
    assert(d.getAs[Long]("inDegree") == 0L)
    assert(d.getAs[Long]("outDegree") == 1L)
  }

  test("degrees match the DuckDB oracle") {
    val e = Importance.edges(kg())
    Oracle.assertEquivalent(
      Importance.degrees(kg()).select(col("id"), col("inDegree").cast("string").as("ind")),
      """SELECT n.id AS id, CAST(COALESCE(c.ind, 0) AS VARCHAR) AS ind
         FROM (SELECT DISTINCT subject AS id FROM kg) n
         LEFT JOIN (SELECT dst, COUNT(*) AS ind FROM e GROUP BY dst) c ON n.id = c.dst""",
      "kg" -> kg().select("subject"), "e" -> e)
  }

  test("identities counts distinct contributing sources (§3.3)") {
    val ids = Importance.identities(kg()).collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(ids("kg:hub") == 2L) // sources a and b
    assert(ids("kg:t") == 1L)
  }

  test("pagerank sums to ~1 and favours the hub") {
    val pr = Importance.pagerank(kg(), iterations = 15).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(math.abs(pr.values.sum - 1.0) < 1e-3)
    assert(pr("kg:hub") > pr("kg:s1"))
    assert(pr("kg:t") > pr("kg:s1")) // receives the hub's mass
  }

  test("pagerank of an empty graph is empty") {
    val pr = Importance.pagerank(Schema.emptyTriples(spark))
    assert(pr.count() == 0)
  }

  // (subject, object, sources): objects in the kg namespace are edges,
  // others are literals; kg:gone is never a subject, so its inbound mass
  // leaks, and sources may be empty (zero identities)
  private type Fact = (String, String, Seq[String])

  private def refEdges(facts: Seq[Fact]): Seq[(String, String)] =
    facts.collect { case (s, o, _) if o.startsWith(Schema.KgNs) && s != o => (s, o) }.distinct

  /** PageRank by plain power iteration, as `pagerank` specifies it. */
  private def refPagerank(facts: Seq[Fact], iterations: Int, d: Double = 0.85): Map[String, Double] = {
    val nodes = facts.map(_._1).distinct
    val n = nodes.size.toDouble
    val edges = refEdges(facts)
    val outDeg = edges.groupBy(_._1).map { case (s, es) => s -> es.size }
    var ranks = nodes.map(_ -> 1.0 / n).toMap
    for (_ <- 0 until iterations) {
      val dangling = nodes.filterNot(outDeg.contains).map(ranks).sum
      val inbound = edges.groupBy(_._2).map { case (dst, es) => dst -> es.map(e => ranks(e._1) / outDeg(e._1)).sum }
      ranks = nodes.map(id => id -> ((1 - d) / n + d * (inbound.getOrElse(id, 0.0) + dangling / n))).toMap
    }
    ranks
  }

  /** The importance view's rows: in/out degree, identities, PageRank and
    * the aggregate.
    */
  private def refImportance(facts: Seq[Fact], iterations: Int): Map[String, Seq[Double]] = {
    val pr = refPagerank(facts, iterations)
    val edges = refEdges(facts)
    val metrics = pr.keys.map { id =>
      id -> (edges.count(_._2 == id).toDouble, edges.count(_._1 == id).toDouble,
             facts.filter(_._1 == id).flatMap(_._3).distinct.size.toDouble, pr(id))
    }.toMap
    def maxOf(f: ((Double, Double, Double, Double)) => Double, floor: Double) =
      (metrics.values.map(f) ++ Seq(floor)).max
    val (mi, mo, mid, mpr) = (maxOf(_._1, 1), maxOf(_._2, 1), maxOf(_._3, 1), maxOf(_._4, 1e-12))
    metrics.map { case (id, (in, out, ids, p)) =>
      val raw = in / mi * 0.2 + out / mo * 0.2 + ids / mid * 0.25 + p / mpr * 0.35
      id -> Seq(in, out, ids, p, BigDecimal(raw).setScale(6, BigDecimal.RoundingMode.HALF_UP).toDouble)
    }
  }

  private def triplesOf(facts: Seq[Fact]) = Schema.fromTuples(spark, facts.map { case (s, o, src) =>
    (s, if (o.startsWith(Schema.KgNs)) "ref" else "name", null, null, o, "en", src, src.map(_ => 0.9), 0.9)
  })

  private def close(a: Map[String, Seq[Double]], b: Map[String, Seq[Double]]): Boolean =
    a.keySet == b.keySet && a.forall { case (k, v) =>
      v.size == b(k).size && v.zip(b(k)).forall { case (x, y) => math.abs(x - y) <= 1e-12 }
    }

  test("pagerank and importanceView equal a plain power iteration on random graphs (property)") {
    val ids = (0 until 6).map(i => s"kg:e$i")
    val fact: Gen[Fact] = for {
      s <- Gen.oneOf(ids)
      o <- Gen.frequency(4 -> Gen.oneOf(ids), 1 -> Gen.const("kg:gone"), 2 -> Gen.oneOf("Alpha", "Beta"))
      src <- Gen.someOf("a", "b", "c")
    } yield (s, o, src.toSeq.sorted)
    val graph = Gen.choose(1, 14).flatMap(Gen.listOfN(_, fact))
    def agrees(facts: Seq[Fact], iterations: Int): Prop = {
      val kg = triplesOf(facts)
      val pr = Importance.pagerank(kg, iterations).collect().map(r => r.getString(0) -> Seq(r.getDouble(1))).toMap
      val imp = Importance.importanceView(kg, iterations).collect().map { r =>
        r.getString(0) -> (Seq("inDegree", "outDegree", "identities").map(r.getAs[Long](_).toDouble) ++
                           Seq(r.getAs[Double]("pagerank"), r.getAs[Double]("importance")))
      }.toMap
      (close(pr, refPagerank(facts, iterations).map { case (k, v) => k -> Seq(v) }) :| s"pagerank $pr of $facts") &&
        (close(imp, refImportance(facts, iterations)) :| s"importance $imp of $facts")
    }
    Props.check(agrees(Seq.empty, 2), minTests = 1)
    Props.check(Prop.forAllNoShrink(graph, Gen.choose(0, 3))(agrees), minTests = 12)
  }

  test("importance view carries all four metrics and the aggregate") {
    val v = Importance.importanceView(kg(), prIterations = 8)
    assert(v.columns.toSet ==
      Set("id", "inDegree", "outDegree", "identities", "pagerank", "importance"))
    val scores = v.collect().map(r => r.getString(0) -> r.getAs[Double]("importance")).toMap
    assert(scores("kg:hub") > scores("kg:s1"))
    assert(scores.values.forall(s => s >= 0.0 && s <= 1.0))
  }

  test("degree alone does not dominate: multi-source identity lifts importance") {
    // two nodes with equal degree; one has 2 sources
    val df = Schema.fromTuples(spark, Seq(
      ("kg:a", "name", null, null, "A", "en", Seq("s1", "s2", "s3"), Seq(0.9, 0.8, 0.7), 0.9),
      ("kg:b", "name", null, null, "B", "en", Seq("s1"), Seq(0.9), 0.9)))
    val scores = Importance.importanceView(df, prIterations = 2).collect()
      .map(r => r.getString(0) -> r.getAs[Double]("importance")).toMap
    assert(scores("kg:a") > scores("kg:b"))
  }
}
