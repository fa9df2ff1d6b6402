package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Extended-triples data model (§2.1, Table 1). */
class SchemaSpec extends SparkSpec {

  private def sample() = Schema.fromTuples(spark, Seq(
    ("e1", "name", null, null, "J. Smith", "en", Seq("src1", "src2"), Seq(0.9, 0.8), 0.98),
    ("e1", "educated_at", "r1", "school", "UW", "en", Seq("src2"), Seq(0.8), 0.8),
    ("e1", "educated_at", "r1", "degree", "PhD", "en", Seq("src2"), Seq(0.8), 0.8),
    ("e1", "educated_at", "r1", "year", "2005", "en", Seq("src2"), Seq(0.8), 0.8),
  ))

  test("fromTuples builds the canonical schema") {
    val df = sample()
    assert(df.schema == Schema.triples)
    assert(df.count() == 4)
  }

  test("the Table-1 example roundtrips: one simple + three relationship facts") {
    val df = sample()
    assert(df.filter(col(Schema.RId).isNull).count() == 1)
    assert(df.filter(col(Schema.RId) === "r1").count() == 3)
    val rps = df.filter(col(Schema.RId) === "r1")
      .select(Schema.RPredicate).collect().map(_.getString(0)).toSet
    assert(rps == Set("school", "degree", "year"))
  }

  test("emptyTriples has the canonical schema and zero rows") {
    val e = Schema.emptyTriples(spark)
    assert(e.schema == Schema.triples)
    assert(e.count() == 0)
  }

  test("canonicalize reorders columns") {
    val shuffled = sample().select("obj", "subject", "conf", "predicate", "r_id",
                                   "r_predicate", "locale", "sources", "trust")
    assert(Schema.canonicalize(shuffled).columns.toSeq == Schema.columns)
  }

  test("canonicalize rejects non-triples relations") {
    intercept[IllegalArgumentException] {
      Schema.canonicalize(sample().drop("locale"))
    }
  }

  test("isKgId recognizes the KG namespace") {
    assert(Schema.isKgId("kg:abc"))
    assert(!Schema.isKgId("wiki:abc"))
    assert(!Schema.isKgId(null))
  }

  test("mintKgId is deterministic and namespaced") {
    val a = Schema.mintKgId("seed-1")
    assert(a == Schema.mintKgId("seed-1"))
    assert(a.startsWith(Schema.KgNs))
    assert(a != Schema.mintKgId("seed-2"))
  }
}
