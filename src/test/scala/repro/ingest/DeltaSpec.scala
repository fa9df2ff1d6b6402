package repro.ingest

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Eager delta computation (§2.2/§2.4): Added / Deleted / Updated and the
  * volatile full dump.
  */
class DeltaSpec extends SparkSpec {
  import spark.implicits._

  private def prev() = Seq(
    ("e1", "Alpha", "10", "0.5"),
    ("e2", "Beta", "20", "0.6"),
    ("e3", "Gamma", "30", "0.7"),
  ).toDF("id", "name", "size", "pop")

  private def cur() = Seq(
    ("e1", "Alpha", "10", "0.9"),   // only volatile changed → NOT updated
    ("e2", "Beta2", "20", "0.6"),   // stable change → updated
    ("e4", "Delta", "40", "0.1"),   // new → added
  ).toDF("id", "name", "size", "pop")

  private def delta() = Delta.compute(prev(), cur(), Set("pop"))

  test("added contains entities present only at t_n") {
    assert(delta().added.select("id").as[String].collect().toSet == Set("e4"))
  }

  test("deleted contains entities present only at t_0, with the old payload") {
    val d = delta().deleted.collect()
    assert(d.map(_.getString(0)).toSet == Set("e3"))
    assert(d.head.getAs[String]("name") == "Gamma")
  }

  test("updated contains entities whose stable payload changed") {
    assert(delta().updated.select("id").as[String].collect().toSet == Set("e2"))
  }

  test("volatile churn does not produce an update (churn factored out, §2.4)") {
    assert(!delta().updated.select("id").as[String].collect().contains("e1"))
  }

  test("volatile dump covers all current entities") {
    val v = delta().volatileDump
    assert(v.select("id").as[String].collect().toSet == Set("e1", "e2", "e4"))
    assert(v.columns.toSet == Set("id", "pop"))
  }

  test("partitions are disjoint and cover exactly the symmetric difference + changes") {
    val d = delta()
    val a = d.added.select("id").as[String].collect().toSet
    val del = d.deleted.select("id").as[String].collect().toSet
    val u = d.updated.select("id").as[String].collect().toSet
    assert((a & del).isEmpty && (a & u).isEmpty && (del & u).isEmpty)
  }

  test("identical snapshots produce empty deltas") {
    val d = Delta.compute(prev(), prev(), Set("pop"))
    assert(d.counts() == ((0L, 0L, 0L)))
  }

  test("bootstrap is a full Added payload with empty Deleted/Updated (§2.4)") {
    val d = Delta.bootstrap(cur(), Set("pop"))
    assert(d.added.count() == 3 && d.deleted.count() == 0 && d.updated.count() == 0)
    assert(d.volatileDump.count() == 3)
  }

  test("schema mismatch between snapshots is rejected") {
    intercept[IllegalArgumentException] {
      Delta.compute(prev().drop("pop"), cur(), Set("pop"))
    }
  }

  test("stable hash ignores column order") {
    val reordered = cur().select("pop", "size", "name", "id")
    val d = Delta.compute(cur(), reordered, Set("pop"))
    assert(d.counts() == ((0L, 0L, 0L)))
  }

  test("added matches the DuckDB oracle anti-join") {
    Oracle.assertEquivalent(
      delta().added.select("id", "name"),
      "SELECT c.id AS id, c.name AS name FROM cur c WHERE c.id NOT IN (SELECT id FROM prev)",
      "prev" -> prev(), "cur" -> cur())
  }

  test("deleted matches the DuckDB oracle anti-join") {
    Oracle.assertEquivalent(
      delta().deleted.select("id", "name"),
      "SELECT p.id AS id, p.name AS name FROM prev p WHERE p.id NOT IN (SELECT id FROM cur)",
      "prev" -> prev(), "cur" -> cur())
  }

  test("updated matches the DuckDB oracle stable-column diff") {
    Oracle.assertEquivalent(
      delta().updated.select("id"),
      """SELECT c.id AS id FROM cur c JOIN prev p USING (id)
         WHERE c.name <> p.name OR c.size <> p.size""",
      "prev" -> prev(), "cur" -> cur())
  }

  test("map-typed payload columns participate in the stable hash") {
    val p = Seq(("e1", Map("a" -> "1"), Map("pop" -> "0.5"))).toDF("id", "attrs", "volatile")
    val c1 = Seq(("e1", Map("a" -> "2"), Map("pop" -> "0.5"))).toDF("id", "attrs", "volatile")
    val c2 = Seq(("e1", Map("a" -> "1"), Map("pop" -> "0.9"))).toDF("id", "attrs", "volatile")
    assert(Delta.compute(p, c1, Set("volatile")).updated.count() == 1)
    assert(Delta.compute(p, c2, Set("volatile")).updated.count() == 0)
  }
}
