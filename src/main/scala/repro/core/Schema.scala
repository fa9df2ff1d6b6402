package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The extended-triples data model of Saga (§2.1, Table 1).
  *
  * Every fact in the KG is one row: a <subject, predicate, object> triple,
  * extended with an optional relationship node (`r_id`, `r_predicate`) that
  * flattens one-hop composite relationships (e.g. `educated_at.school`)
  * into the same relation, plus metadata columns:
  *
  *   - `locale`  : locale tag for literals (multi-lingual knowledge),
  *   - `sources` : array of contributing source identifiers (provenance),
  *   - `trust`   : per-source trustworthiness scores, aligned with `sources`,
  *   - `conf`    : aggregated probability of correctness from truth discovery.
  *
  * Subjects are entity identifiers; in the KG namespace they carry a `kg:`
  * prefix, while source-namespace identifiers carry `<sourceName>:`. Objects
  * are either literals or entity references (again `kg:`-prefixed).
  */
object Schema {

  /** Column names, in canonical order. */
  val Subject     = "subject"
  val Predicate   = "predicate"
  val RId         = "r_id"
  val RPredicate  = "r_predicate"
  val Obj         = "obj"
  val Locale      = "locale"
  val Sources     = "sources"
  val Trust       = "trust"
  val Conf        = "conf"

  val columns: Seq[String] =
    Seq(Subject, Predicate, RId, RPredicate, Obj, Locale, Sources, Trust, Conf)

  /** Spark schema of the extended-triples relation. */
  val triples: StructType = StructType(Seq(
    StructField(Subject,    StringType,  nullable = false),
    StructField(Predicate,  StringType,  nullable = false),
    StructField(RId,        StringType,  nullable = true),
    StructField(RPredicate, StringType,  nullable = true),
    StructField(Obj,        StringType,  nullable = false),
    StructField(Locale,     StringType,  nullable = true),
    StructField(Sources,    ArrayType(StringType, containsNull = false), nullable = false),
    StructField(Trust,      ArrayType(DoubleType, containsNull = false), nullable = false),
    StructField(Conf,       DoubleType,  nullable = false),
  ))

  /** Prefix of entity identifiers in the KG namespace. */
  val KgNs = "kg:"

  /** True iff `id` is a KG-namespace entity identifier. */
  def isKgId(id: String): Boolean = id != null && id.startsWith(KgNs)

  /** Deterministic KG entity id minted from a stable seed string (§2.3:
    * "we create a new KG entity"). Hash-based so distributed, incremental
    * runs mint the same id for the same cluster.
    */
  def mintKgId(seed: String): String =
    KgNs + java.security.MessageDigest.getInstance("SHA-1")
      .digest(seed.getBytes("UTF-8")).map("%02x".format(_)).mkString.take(16)

  /** An empty extended-triples DataFrame (the KG before any construction). */
  def emptyTriples(spark: SparkSession): DataFrame =
    spark.createDataFrame(spark.sparkContext.emptyRDD[Row], triples)

  /** Build a triples DataFrame from in-memory tuples; convenience for tests
    * and small payloads. Null `rId`/`rPredicate` encode simple facts.
    */
  def fromTuples(
      spark: SparkSession,
      rows: Seq[(String, String, String, String, String, String, Seq[String], Seq[Double], Double)],
  ): DataFrame = {
    val rws = rows.map { case (s, p, ri, rp, o, loc, srcs, tr, c) =>
      Row(s, p, ri, rp, o, loc, srcs, tr, c)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rws), triples)
  }

  /** Project a DataFrame onto the canonical column order, validating that
    * all extended-triple columns are present.
    */
  def canonicalize(df: DataFrame): DataFrame = {
    val missing = columns.filterNot(df.columns.contains)
    require(missing.isEmpty, s"not an extended-triples relation; missing: $missing")
    df.select(columns.map(col): _*)
  }

  /** `pred.r_predicate` for a composite fact, `pred` for a simple one (`concat_ws` skips nulls). */
  def flatPredicate: Column = concat_ws(".", col(Predicate), col(RPredicate))

  /** Key columns identifying a fact for fusion joins: a fact is the same
    * fact iff subject, predicate, relationship slot, object and locale all
    * agree (provenance/confidence are metadata, not identity).
    */
  val factKey: Seq[String] = Seq(Subject, Predicate, RId, RPredicate, Obj, Locale)
}
