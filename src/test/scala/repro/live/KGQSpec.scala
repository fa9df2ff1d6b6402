package repro.live

import org.scalatest.funsuite.AnyFunSuite
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
}
