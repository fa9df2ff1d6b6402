package repro.construct

import org.apache.spark.sql.Dataset
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, Props, SparkSpec}

/** Blocking and block-local pair generation (§2.3 steps 3–4). */
class BlockingSpec extends SparkSpec {
  import spark.implicits._

  test("keysForName emits prefix, token and skeleton keys") {
    val ks = Blocking.keysForName("Robert Smith")
    assert(ks.exists(_.startsWith("p:")))
    assert(ks.exists(_.startsWith("t:")))
    assert(ks.exists(_.startsWith("s:")))
  }

  test("keysForName of an empty name is empty") {
    assert(Blocking.keysForName("").isEmpty)
  }

  test("typo variants share at least one blocking key") {
    val a = Blocking.keysForName("Springfield Wolves").toSet
    val b = Blocking.keysForName("Springfeld Wolves").toSet // vowel dropped
    assert(a.intersect(b).nonEmpty)
  }

  test("token reordering shares the token-sort key") {
    val a = Blocking.keysForName("Smith Robert").toSet
    val b = Blocking.keysForName("Robert Smith").toSet
    assert(a.intersect(b).nonEmpty)
  }

  test("keysForRecord is type-scoped — same name, different type never collides") {
    val p = Blocking.keysForRecord("person", "Hanover", Seq.empty).toSet
    val c = Blocking.keysForRecord("city", "Hanover", Seq.empty).toSet
    assert(p.intersect(c).isEmpty)
  }

  test("aliases contribute keys") {
    val ks = Blocking.keysForRecord("person", "Robert Smith", Seq("Bob Smith"))
    assert(ks.exists(_.contains("bob")))
  }

  private def recs(rows: (String, String, String)*) =
    rows.map { case (id, etype, name) => Matching.Rec(id, etype, name, Seq.empty, Map.empty, isKg = false) }.toDS()

  private def pairs(records: Dataset[Matching.Rec], maxBlockSize: Int = 200): Seq[(String, String)] =
    Blocking.pairs(records, Blocking.oversizedKeys(records, maxBlockSize).collect().toSet)(
      (a, b) => Some((a.id, b.id))).collect().toSeq

  test("blocks assigns co-blocked ids for similar names") {
    val ps = pairs(recs(
      ("a", "person", "Robert Smith"),
      ("b", "person", "Robert Smyth"),
      ("c", "person", "Zelda Quinn"))).toSet
    assert(ps.contains(("a", "b")))
    assert(!ps.contains(("a", "c")) && !ps.contains(("b", "c")))
  }

  test("pairs are unordered and deduplicated") {
    val ps = pairs(recs(("a", "person", "Robert Smith"), ("b", "person", "Robert Smith")))
    assert(ps == Seq(("a", "b")))
  }

  test("oversized blocks are dropped (quadratic blow-up guard)") {
    val rs = recs((1 to 30).map(i => (s"id$i", "person", "Common Name")): _*)
    assert(pairs(rs, maxBlockSize = 10).isEmpty)
  }

  test("within-limit blocks produce all n-choose-2 pairs") {
    val rs = recs((1 to 5).map(i => (s"id$i", "person", "Common Name")): _*)
    assert(pairs(rs, maxBlockSize = 10).size == 10)
  }

  test("block-local pairs match the DuckDB self-join over block membership (property)") {
    // Names from a small pool share some keys and not others, so a pair
    // can be co-blocked under several keys, and a small size cap drops
    // some blocks but not others.
    val names = Seq("Robert Smith", "Robert Smyth", "Smith Robert", "Rob Smith", "Zelda Quinn", "Zelda Quin")
    val rec = for {
      etype <- Gen.oneOf("person", "city")
      name  <- Gen.oneOf(names)
      alias <- Gen.option(Gen.oneOf(names))
      isKg  <- Gen.oneOf(true, false)
    } yield (etype, name, alias.toSeq, isKg)
    val gen = for {
      n   <- Gen.choose(2, 14)
      rs  <- Gen.listOfN(n, rec)
      cap <- Gen.choose(2, 6)
    } yield (rs.zipWithIndex.map { case ((etype, name, aliases, isKg), i) =>
      Matching.Rec(if (isKg) s"kg:$i" else s"s:$i", etype, name, aliases, Map.empty, isKg)
    }, cap)
    Props.check(Prop.forAllNoShrink(gen) { case (rs, cap) =>
      val membership = rs.flatMap(r => Blocking.keysForRecord(r.etype, r.name, r.aliases)
        .map(k => (k, r.id, r.isKg.toString))).toDF("blockKey", "id", "isKg")
      Oracle.assertEquivalent(
        pairs(rs.toDS(), cap).toDF("id1", "id2"),
        s"""SELECT DISTINCT a.id AS id1, b.id AS id2 FROM m a JOIN m b USING (blockKey)
            WHERE blockKey IN (SELECT blockKey FROM m GROUP BY blockKey HAVING count(*) <= $cap)
              AND a.id < b.id AND (a.isKg = 'false' OR b.isKg = 'false')""",
        "m" -> membership)
      true
    }, minTests = 20)
  }
}
