package repro.live

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import repro.ml.StringSim
import KGQ._
import Stores._

/** The KGQ language and execution engine (§4.2). */
class KGQSpec extends AnyFunSuite {

  // ------------------------------------------------------------- parsing
  test("parse basic FIND/WHERE/RETURN") {
    val q = parse("""FIND person WHERE name = "Tom Hanks" RETURN spouse""")
    assert(q == Query(Some("person"), Seq(Eq("name", "Tom Hanks")), Seq("spouse")))
  }

  test("parse wildcard type and multiple returns") {
    val q = parse("""FIND * WHERE name = "X" RETURN name, type""")
    assert(q.etype.isEmpty && q.ret == Seq("name", "type"))
  }

  test("parse AND-chained conditions") {
    val q = parse("""FIND person WHERE name = "A" AND birth_year = "1960" RETURN id""")
    assert(q.conds == Seq(Eq("name", "A"), Eq("birth_year", "1960")))
  }

  test("parse contains operator") {
    val q = parse("""FIND school WHERE name ~ "university" RETURN name""")
    assert(q.conds == Seq(Contains("name", "university")))
  }

  test("parse hop traversal") {
    val q = parse("""FIND person WHERE spouse -> (name = "Rita Wilson") RETURN name""")
    assert(q.conds == Seq(Hop("spouse", Seq(Eq("name", "Rita Wilson")))))
  }

  test("parse nested multi-hop traversal") {
    val q = parse(
      """FIND person WHERE birthplace -> (located_in -> (name = "Avaloria")) RETURN name""")
    assert(q.conds == Seq(Hop("birthplace", Seq(Hop("located_in", Seq(Eq("name", "Avaloria")))))))
  }

  test("parse LIMIT") {
    val q = parse("""FIND person RETURN name LIMIT 3""")
    assert(q.limit == 3)
  }

  test("parse rejects trailing garbage") {
    intercept[ParseException] { parse("""FIND person RETURN name extra""") }
    intercept[ParseException] { parse("""FIND person RETURN name LIMIT abc""") }
    intercept[ParseException] { parse("""FIND person RETURN name LIMIT -1""") }
  }

  test("parse rejects unterminated strings") {
    intercept[ParseException] { parse("""FIND person WHERE name = "unterminated RETURN name""") }
    Seq("FIND", "FIND person WHERE", "FIND person RETURN").foreach(q => intercept[ParseException](parse(q)))
  }

  test("parse rejects unknown virtual operators") {
    intercept[ParseException] { parse("""FIND person WHERE $nope("x") RETURN name""") }
  }

  test("virtual operators expand to condition fragments") {
    val ops: Map[String, VirtualOp] = Map(
      "bornIn" -> (args => Seq(Hop("birthplace", Seq(Eq("name", args.head))))))
    val q = parse("""FIND person WHERE $bornIn("Salem") RETURN name""", ops)
    assert(q.conds == Seq(Hop("birthplace", Seq(Eq("name", "Salem")))))
  }

  // ------------------------------------------------------------ execution
  private def fixture(): Engine = {
    val live = new LiveGraph()
    def put(id: String, rec: Record): Unit = live.ingest(id -> rec)
    put("kg:tom", Map("type" -> Seq("person"), "name" -> Seq("Tom Hanks"),
      "spouse" -> Seq("kg:rita"), "birth_year" -> Seq("1956")))
    put("kg:rita", Map("type" -> Seq("person"), "name" -> Seq("Rita Wilson"),
      "birthplace" -> Seq("kg:holly"), "spouse" -> Seq("kg:tom")))
    put("kg:holly", Map("type" -> Seq("city"), "name" -> Seq("Hollywood"),
      "located_in" -> Seq("kg:usa")))
    put("kg:usa", Map("type" -> Seq("country"), "name" -> Seq("Avaloria")))
    put("kg:tom2", Map("type" -> Seq("person"), "name" -> Seq("Tom Baker")))
    new Engine(live.kv, live.index, Map(
      "bornIn" -> (args => Seq(Hop("birthplace", Seq(Eq("name", args.head)))))))
  }

  test("execute exact name lookup") {
    val rows = fixture().query("""FIND person WHERE name = "Tom Hanks" RETURN spouse""")
    assert(rows.map(_.id) == Seq("kg:tom"))
    assert(rows.head.values("spouse") == Seq("kg:rita"))
  }

  test("execute type filter distinguishes entities sharing tokens") {
    val rows = fixture().query("""FIND person WHERE name ~ "tom" RETURN name""")
    assert(rows.map(_.id).toSet == Set("kg:tom", "kg:tom2"))
  }

  test("execute hop traversal binds through entity references") {
    val rows = fixture().query(
      """FIND person WHERE spouse -> (name = "Rita Wilson") RETURN name""")
    assert(rows.map(_.id) == Seq("kg:tom"))
  }

  test("execute two-hop traversal") {
    val rows = fixture().query(
      """FIND person WHERE birthplace -> (located_in -> (name = "Avaloria")) RETURN name""")
    assert(rows.map(_.id) == Seq("kg:rita"))
  }

  test("execute virtual operator") {
    val rows = fixture().query("""FIND person WHERE $bornIn("Hollywood") RETURN name""")
    assert(rows.map(_.id) == Seq("kg:rita"))
  }

  test("execute respects LIMIT") {
    val rows = fixture().query("""FIND person RETURN name LIMIT 1""")
    assert(rows.size == 1)
  }

  test("execute returns empty on no match") {
    assert(fixture().query("""FIND person WHERE name = "Nobody" RETURN name""").isEmpty)
  }

  test("equality is normalization-insensitive") {
    val rows = fixture().query("""FIND person WHERE name = "tom  hanks" RETURN name""")
    assert(rows.map(_.id) == Seq("kg:tom"))
  }

  test("id and * projections") {
    val rows = fixture().query("""FIND country WHERE name = "Avaloria" RETURN id, *""")
    assert(rows.head.values("id") == Seq("kg:usa"))
    assert(rows.head.values("*").contains("name"))
  }

  // ------------------------------------------------- planning (§4.2)
  private def graph(recs: (String, Record)*): LiveGraph = {
    val live = new LiveGraph()
    live.loadStable(recs)
    live
  }

  /** Reference KGQ evaluation: a scan of every KV record with no index. */
  private def scan(live: LiveGraph, q: Query): Seq[String] = {
    def holds(rec: Record, c: Cond, depth: Int): Boolean = c match {
      case Eq(p, v) => rec.getOrElse(p, Seq.empty).exists(StringSim.normalize(_) == StringSim.normalize(v))
      case Contains(p, v) =>
        rec.getOrElse(p, Seq.empty).exists(x => StringSim.tokens(v).toSet.subsetOf(StringSim.tokens(x).toSet))
      case Hop(p, sub) =>
        depth < 4 && rec.getOrElse(p, Seq.empty).exists(t => live.kv.get(t).exists(r => sub.forall(holds(r, _, depth + 1))))
    }
    live.kv.ids.sorted.filter { id =>
      live.kv.get(id).exists(rec => q.etype.forall(t => rec.getOrElse("type", Seq.empty).contains(t)) &&
                                    q.conds.forall(holds(rec, _, 0)))
    }.take(q.limit)
  }

  test("a literal with no tokens bounds no candidates") {
    val live = graph("kg:a" -> Map("type" -> Seq("person"), "name" -> Seq("?")),
                     "kg:b" -> Map("type" -> Seq("person"), "name" -> Seq("Ann Lee")))
    val engine = new Engine(live.kv, live.index)
    val want = Map("""FIND person WHERE name = "!" RETURN id""" -> Seq("kg:a"),
                   """FIND person WHERE name ~ "" RETURN id""" -> Seq("kg:a", "kg:b"),
                   """FIND * WHERE name ~ "" RETURN id""" -> Seq("kg:a", "kg:b"))
    want.foreach { case (text, ids) =>
      val q = parse(text)
      assert(scan(live, q) == ids, text)
      assert(engine.execute(q).map(_.id) == ids, text)
    }
  }

  test("explain: a hop drives from the records that point at its sub-query's ids") {
    val city = (id: String, name: String) => id -> Map("type" -> Seq("city"), "name" -> Seq(name))
    val person = (id: String, born: String) =>
      id -> Map("type" -> Seq("person"), "name" -> Seq(s"P $id"), "birthplace" -> Seq(born))
    val live = graph(city("kg:salem", "Salem"), city("kg:paris", "Paris"),
                     person("kg:p1", "kg:salem"), person("kg:p2", "kg:salem"), person("kg:p3", "kg:salem"),
                     person("kg:p4", "kg:paris"), person("kg:p5", "kg:paris"))
    val engine = new Engine(live.kv, live.index)
    val hop = parse("""FIND person WHERE birthplace -> (name = "Salem") RETURN id LIMIT 2""")
    assert(engine.explain(hop) == Plan("hop:birthplace", 3, 3))
    assert(engine.execute(hop).map(_.id) == Seq("kg:p1", "kg:p2"))
    assert(engine.explain(parse("""FIND person WHERE name = "P kg:p4" RETURN id""")) ==
      Plan("name = \"P kg:p4\"", 1, 1))
    assert(engine.explain(parse("""FIND city RETURN id""")) == Plan("type", 2, 2))
    assert(engine.explain(parse("""FIND * RETURN id""")) == Plan("scan", 7, 7))
  }

  /** Ids that share tokens (`kg:a`, `kg:a:b`, `KG:A`) or have none (`::`). */
  private val hopIds = Seq("kg:a", "kg:a:b", "KG:A", "::", "kg:b", "kg:c")
  private val names = Seq("Ann", "Ann Lee", "Lee", "?", "Bo")
  private val edges = Seq("spouse", "birthplace")

  private val recordGen: Gen[Record] = for {
    ty <- Gen.oneOf("person", "city")
    name <- Gen.oneOf(names)
    refs <- Gen.listOf(Gen.zip(Gen.oneOf(edges),
              Gen.frequency(6 -> Gen.oneOf(hopIds), 1 -> Gen.const("kg:dangling"), 1 -> Gen.oneOf(names))))
  } yield Map("type" -> Seq(ty), "name" -> Seq(name)) ++
    refs.groupMap(_._1)(_._2).map { case (p, vs) => p -> vs.distinct }

  private def condGen(depth: Int): Gen[Cond] = {
    val literal = Gen.zip(Gen.oneOf("name" +: edges), Gen.oneOf(names ++ hopIds :+ "" :+ "!"), Gen.prob(0.5))
      .map { case (p, v, eq) => if (eq) Eq(p, v) else Contains(p, v) }
    if (depth >= 5) literal
    else Gen.frequency(1 -> literal, 2 -> Gen.zip(Gen.oneOf(edges), Gen.choose(1, 2))
      .flatMap { case (p, n) => Gen.listOfN(n, condGen(depth + 1)).map(Hop(p, _)) })
  }

  test("engine equals a KV scan on random graphs with hops (property)") {
    val queryGen = for {
      ty <- Gen.option(Gen.oneOf("person", "city"))
      n <- Gen.choose(0, 3)
      conds <- Gen.listOfN(n, condGen(0))
    } yield Query(ty, conds, Seq("id"), limit = 100)
    // An id left without a record is a dangling reference.
    val gen = Gen.zip(Gen.listOfN(hopIds.size, Gen.option(recordGen)), Gen.listOfN(20, queryGen))
    Props.check(Prop.forAllNoShrink(gen) { case (recOpts, queries) =>
      val recs = hopIds.zip(recOpts).collect { case (id, Some(rec)) => id -> rec }
      val live = graph(recs: _*)
      val engine = new Engine(live.kv, live.index)
      val wrong = queries.filter(q => engine.execute(q).map(_.id) != scan(live, q))
      wrong.isEmpty :| s"engine differs from a KV scan on ${wrong.take(2)} over $recs"
    }, minTests = 200)
  }
}
