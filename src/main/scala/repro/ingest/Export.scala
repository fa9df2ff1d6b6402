package repro.ingest

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{Ontology, Schema}

/** Export stage (§2.2): generate extended triples in the KG-ontology
  * schema for consumption by knowledge construction. The one-hop
  * triplication of composite relationship nodes happens here, so the
  * construction pipeline never self-joins ingested data (§2.4,
  * "Lightweight Ingestion").
  */
object Export {

  /** The entity-centric row contract between a source's alignment and
    * its delta and export stages: one row per source entity, its id in
    * the source namespace, its stable predicates as the name, `attrs`,
    * `refNames` and composite relationship nodes, and its volatile
    * predicates in the `volatile` map.
    */
  val RowSchema: StructType = {
    val pairs = MapType(StringType, StringType)
    StructType(Seq(
      StructField("id", StringType), StructField("source", StringType),
      StructField("trust", DoubleType), StructField("etype", StringType),
      StructField("name", StringType), StructField("attrs", pairs),
      StructField("refNames", pairs), StructField("compositePred", StringType),
      StructField("composites", ArrayType(pairs)), StructField("volatile", pairs)))
  }

  private def finish(df: DataFrame): DataFrame =
    Schema.canonicalize(
      df.withColumn(Schema.Locale, coalesce(col(Schema.Locale), lit("en")))
        .filter(col(Schema.Obj).isNotNull && trim(col(Schema.Obj)) =!= ""))

  /** Entity-centric rows ([[RowSchema]]) → *stable* extended triples in
    * the source namespace.
    */
  def stableTriples(rows: DataFrame): DataFrame = {
    val simple = rows.select(
      col("id").as(Schema.Subject),
      explode(map_concat(
        map(lit(Ontology.TypePred), col("etype")),
        map(lit(Ontology.NamePred), col("name")),
        coalesce(col("attrs"), map()),
        coalesce(col("refNames"), map()),
      )).as(Seq("predicate", "obj")),
      col("source"), col("trust"),
    ).select(
      col(Schema.Subject), col(Schema.Predicate),
      lit(null: String).as(Schema.RId), lit(null: String).as(Schema.RPredicate),
      col(Schema.Obj), lit("en").as(Schema.Locale),
      array(col("source")).as(Schema.Sources), array(col("trust")).as(Schema.Trust),
      col("trust").as(Schema.Conf),
    )

    val composite = rows
      .filter(col("compositePred").isNotNull && size(coalesce(col("composites"), array())) > 0)
      .select(col("id"), col("source"), col("trust"), col("compositePred"),
              posexplode(col("composites")).as(Seq("pos", "rmap")))
      .select(col("id"), col("source"), col("trust"), col("compositePred"),
              concat(col("id"), lit("#r"), col("pos")).as(Schema.RId),
              explode(col("rmap")).as(Seq(Schema.RPredicate, Schema.Obj)))
      .select(
        col("id").as(Schema.Subject), col("compositePred").as(Schema.Predicate),
        col(Schema.RId), col(Schema.RPredicate), col(Schema.Obj),
        lit("en").as(Schema.Locale),
        array(col("source")).as(Schema.Sources), array(col("trust")).as(Schema.Trust),
        col("trust").as(Schema.Conf),
      )

    finish(simple.unionByName(composite))
  }

  /** Volatile predicates of the same rows as a *separate* full dump
    * (§2.4) — fused later by partition overwrite, never by join.
    */
  def volatileTriples(rows: DataFrame): DataFrame =
    finish(rows
      .filter(size(map_keys(coalesce(col("volatile"), map()))) > 0)
      .select(col("id"), col("source"), col("trust"),
              explode(col("volatile")).as(Seq("predicate", "obj")))
      .select(
        col("id").as(Schema.Subject), col(Schema.Predicate),
        lit(null: String).as(Schema.RId), lit(null: String).as(Schema.RPredicate),
        col(Schema.Obj), lit("en").as(Schema.Locale),
        array(col("source")).as(Schema.Sources), array(col("trust")).as(Schema.Trust),
        col("trust").as(Schema.Conf)))
}
