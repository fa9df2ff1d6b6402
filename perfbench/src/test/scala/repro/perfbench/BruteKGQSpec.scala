package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.live.{KGQ, LiveGraph}

/** The reference evaluator agrees with `KGQ.Engine`, and both give the
  * hand-checked answers, on a small hand-built live graph.
  */
class BruteKGQSpec extends AnyFunSuite {

  private val live = new LiveGraph()
  live.loadStable(Seq(
    "kg:p1" -> Map("type" -> Seq("person"), "name" -> Seq("Robert Smith"), "birth_year" -> Seq("1970"),
                   "birthplace" -> Seq("kg:c1"), "educated_at.school" -> Seq("Avaloria State University"),
                   "educated_at.degree" -> Seq("PhD")),
    "kg:p2" -> Map("type" -> Seq("person"), "name" -> Seq("Alice Smith"), "birthplace" -> Seq("kg:c2"),
                   "educated_at.school" -> Seq("Hanover College")),
    "kg:p3" -> Map("type" -> Seq("person"), "name" -> Seq("Robert Lee"), "birthplace" -> Seq("kg:c1")),
    "kg:p4" -> Map("type" -> Seq("person"), "name" -> Seq("Nora Hall"), "birthplace" -> Seq("kg:c3")),
    "kg:c1" -> Map("type" -> Seq("city"), "name" -> Seq("Hanover"), "country" -> Seq("kg:k1")),
    "kg:c2" -> Map("type" -> Seq("city"), "name" -> Seq("Springfield"), "country" -> Seq("kg:k2")),
    "kg:c3" -> Map("type" -> Seq("city"), "name" -> Seq("Hanover"), "country" -> Seq("kg:k2")),
    "kg:k1" -> Map("type" -> Seq("country"), "name" -> Seq("Avaloria")),
    "kg:k2" -> Map("type" -> Seq("country"), "name" -> Seq("Borduria")),
  ))
  private val engine = new KGQ.Engine(live.kv, live.index)

  private def ids(q: String): Seq[String] = {
    val want = BruteKGQ.query(live.kv, KGQ.parse(q))
    assert(engine.query(q) == want, s"engine and brute force differ on $q")
    want.map(_.id)
  }

  test("= matches normalized values") {
    assert(ids("""FIND person WHERE name = "robert  SMITH" RETURN birth_year""") == Seq("kg:p1"))
  }

  test("~ matches token containment") {
    assert(ids("""FIND person WHERE educated_at.school ~ "university" RETURN educated_at.degree""") == Seq("kg:p1"))
    assert(ids("""FIND * WHERE name ~ "smith" RETURN id""") == Seq("kg:p1", "kg:p2"))
  }

  test("nested -> hops through referenced records") {
    assert(ids("""FIND person WHERE birthplace -> (name = "Hanover") RETURN name""") ==
      Seq("kg:p1", "kg:p3", "kg:p4"))
    assert(ids("""FIND person WHERE birthplace -> (name = "Hanover" AND country -> (name = "Avaloria")) RETURN name""") ==
      Seq("kg:p1", "kg:p3"))
  }

  test("LIMIT keeps the first ids in order") {
    assert(ids("""FIND person WHERE birthplace -> (name = "Hanover") RETURN name LIMIT 2""") == Seq("kg:p1", "kg:p3"))
  }

  test("projections and type-only scans agree") {
    assert(ids("""FIND city RETURN *""") == Seq("kg:c1", "kg:c2", "kg:c3"))
    val row = BruteKGQ.query(live.kv, KGQ.parse("""FIND person WHERE name = "Alice Smith" RETURN birthplace, id""")).head
    assert(row.values == Map("birthplace" -> Seq("kg:c2"), "id" -> Seq("kg:p2")))
  }

  test("a curation is visible to both evaluators") {
    val g = new LiveGraph()
    g.loadStable(Seq("kg:x" -> Map("type" -> Seq("person"), "name" -> Seq("Ada King"))))
    g.curate(LiveGraph.EditFact("kg:x", "name", "Ada King", "Ada Queen"))
    val q = KGQ.parse("""FIND person WHERE name = "Ada Queen" RETURN id""")
    assert(new KGQ.Engine(g.kv, g.index).execute(q) == BruteKGQ.query(g.kv, q))
    assert(BruteKGQ.query(g.kv, q).map(_.id) == Seq("kg:x"))
  }
}
