package repro.construct

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Ontology, Schema}
import repro.ml.Nerd

/** Object Resolution (OBR, §2.3): map string literals in the object field
  * of entity-reference predicates to KG entity identifiers, using the
  * NERD stack with the predicate's ontology type as an explicit type hint
  * (the "NERD with type hints" variant of Figure 14b). Literals that do
  * not resolve with sufficient confidence are left as literals — a new
  * entity for them can be minted by a later curation/acquisition cycle.
  */
object ObjectResolutionStep {

  /** Confidence below which the literal is kept: the paper fixes 0.9
    * during construction because "accurate entity disambiguation is a
    * requirement".
    */
  private val Threshold = 0.9

  /** Build the OBR rewrite function for [[Construction.consume]]'s `obr`
    * hook from a NERD index over the current KG.
    */
  def resolver(index: Nerd.Index): DataFrame => DataFrame = {
    val refPreds = Ontology.entityRefPredicates
    val resolve = udf { (pred: String, rpred: String, obj: String) =>
      val key = if (rpred == null) pred else s"$pred.$rpred"
      refPreds.get(key) match {
        case Some(typeHint) if obj != null && !obj.startsWith(Schema.KgNs) =>
          index.disambiguate(obj, context = Seq.empty, typeHint = Some(typeHint)) match {
            case Some(p) if p.confidence >= Threshold => p.id
            case _ => obj
          }
        case _ => obj
      }
    }
    (triples: DataFrame) =>
      Schema.canonicalize(
        triples.withColumn(Schema.Obj,
          resolve(col(Schema.Predicate), col(Schema.RPredicate), col(Schema.Obj))))
  }
}
