package repro.construct

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Ontology, Schema}

/** The Linking stage in isolation (§2.3): in-source dedup + subject
  * linking against a KG view.
  */
class LinkingSpec extends SparkSpec {
  import spark.implicits._

  private def t(s: String, p: String, o: String, src: String = "wiki", trust: Double = 0.9,
                rid: String = null, rp: String = null) =
    (s, p, rid, rp, o, "en", Seq(src), Seq(trust), trust)

  private def srcTriples() = Schema.fromTuples(spark, Seq(
    // two in-source duplicates of the same person + one new person
    t("w:1", "type", "person"), t("w:1", "name", "Robert Smith"), t("w:1", "birth_year", "1960"),
    t("w:2", "type", "person"), t("w:2", "name", "Robert  Smith"), t("w:2", "birth_year", "1960"),
    t("w:3", "type", "person"), t("w:3", "name", "Zelda Quinn"), t("w:3", "birth_year", "1980"),
  ))

  private def kgTriples() = Schema.fromTuples(spark, Seq(
    t("kg:aaa", "type", "person"), t("kg:aaa", "name", "Robert Smith"),
    t("kg:aaa", "birth_year", "1960"),
    t("kg:bbb", "type", "person"), t("kg:bbb", "name", "Carlos Ruiz"),
  ))

  private lazy val result =
    Linking.run(srcTriples(), kgTriples(), Matching.defaultModel(None))

  private lazy val links: Map[String, String] =
    result.toMap

  test("toRecords consolidates triples into entity records") {
    val recs = Linking.toRecords(srcTriples(), isKg = false).collect()
    assert(recs.length == 3)
    val r = recs.find(_.id == "w:1").get
    assert(r.etype == "person" && r.name == "Robert Smith")
    assert(r.attrs == Map("birth_year" -> "1960"))
    assert(!r.isKg)
  }

  test("toRecords collects aliases and ignores composite rows") {
    val df = Schema.fromTuples(spark, Seq(
      t("w:9", "type", "person"), t("w:9", "name", "A B"), t("w:9", "alias", "AB"),
      t("w:9", "educated_at", "UW", rid = "w:9#r0", rp = "school")))
    val r = Linking.toRecords(df, isKg = true).collect().head
    assert(r.aliases == Seq("AB"))
    assert(!r.attrs.contains("educated_at"))
    assert(r.isKg)
  }

  test("kgViewForTypes restricts the KG to relevant entity types") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:p", "type", "person"), t("kg:p", "name", "X"),
      t("kg:m", "type", "movie"), t("kg:m", "name", "Y")))
    val view = Linking.kgViewForTypes(kg, Seq("person"))
    assert(view.select(Schema.Subject).distinct().as[String].collect().toSeq == Seq("kg:p"))
  }

  test("every source entity is linked") {
    assert(links.keySet == Set("w:1", "w:2", "w:3"))
  }

  test("in-source duplicates get the same id (in-source deduplication)") {
    assert(links("w:1") == links("w:2"))
  }

  test("subject linking assigns the existing KG entity id") {
    assert(links("w:1") == "kg:aaa")
  }

  test("unmatched source entities mint a new deterministic KG id") {
    val z = links("w:3")
    assert(z.startsWith(Schema.KgNs) && z != "kg:aaa" && z != "kg:bbb")
    // deterministic: a rerun mints the same id
    val rerun = Linking.run(srcTriples(), kgTriples(), Matching.defaultModel(None))
    assert(rerun.toMap.apply("w:3") == z)
  }

  test("same_as facts record source→KG provenance of the linking") {
    val sa = Linking.sameAs(spark, result).collect()
    assert(sa.length == 3)
    assert(sa.forall(_.getAs[String](Schema.Predicate) == Ontology.SameAs))
    val pair = sa.map(r => r.getAs[String](Schema.Obj) -> r.getAs[String](Schema.Subject)).toMap
    assert(pair == links)
  }

  test("two existing KG entities are never merged") {
    // even with identical names, KG–KG pairs are forced apart
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:x1", "type", "person"), t("kg:x1", "name", "Twin Name"),
      t("kg:x2", "type", "person"), t("kg:x2", "name", "Twin Name")))
    val src = Schema.fromTuples(spark, Seq(
      t("w:5", "type", "person"), t("w:5", "name", "Twin Name")))
    val res = Linking.run(src, kg, Matching.defaultModel(None))
    val kgId = res.head._2
    assert(Set("kg:x1", "kg:x2").contains(kgId)) // linked to exactly one of them
  }

  test("rewriteSubjects maps source subjects into the KG namespace") {
    val rewritten = Linking.rewriteSubjects(srcTriples(), result)
    val subs = rewritten.select(Schema.Subject).distinct().as[String].collect().toSet
    assert(subs == links.values.toSet)
    assert(rewritten.count() == srcTriples().count())
  }

  test("type mismatch blocks linking (movies never join persons)") {
    val kg = Schema.fromTuples(spark, Seq(
      t("kg:m", "type", "movie"), t("kg:m", "name", "Zelda Quinn")))
    val src = Schema.fromTuples(spark, Seq(
      t("w:7", "type", "person"), t("w:7", "name", "Zelda Quinn")))
    val res = Linking.run(src, kg, Matching.defaultModel(None))
    val id = res.head._2
    assert(id != "kg:m")
  }
}
