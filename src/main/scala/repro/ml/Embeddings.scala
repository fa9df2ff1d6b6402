package repro.ml

import scala.util.Random
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Ontology, Schema}
import repro.engine.VectorDB

/** Knowledge graph embeddings (§5.3): vector representations of entities
  * and predicates trained on entity-to-entity facts, unifying fact
  * ranking, fact verification and missing-fact imputation through vector
  * similarity.
  *
  * Substitution note (DESIGN.md §3): the paper trains TransE/DistMult
  * with Marius on multi-GPU boxes over billions of facts; the downstream
  * consumers (ranking/verification/imputation + Vector DB search) are
  * what Saga exposes, and those are reproduced here with an in-JVM
  * deterministic SGD at laptop scale. GPU wall-clock comparisons are
  * hardware-gated and out of scope.
  */
object Embeddings {

  final case class Triple(s: String, p: String, o: String)

  /** Extract training edges from the KG: the specialized view that
    * "filters unnecessary metadata facts to retain only facts that
    * describe relationships between entities" (§5.3).
    */
  def relationEdges(kg: DataFrame): Seq[Triple] = {
    val spark = kg.sparkSession
    import spark.implicits._
    kg.filter(col(Schema.Obj).startsWith(Schema.KgNs) &&
              col(Schema.Predicate) =!= Ontology.SameAs &&
              col(Schema.Subject) =!= col(Schema.Obj))
      .select(col(Schema.Subject),
              Schema.flatPredicate.as("p"),
              col(Schema.Obj))
      .distinct()
      .as[(String, String, String)]
      .collect().toSeq.map { case (s, p, o) => Triple(s, p, o) }
  }

  sealed trait Kind
  case object TransE extends Kind
  case object DistMult extends Kind

  final case class Config(epochs: Int = 60, seed: Long = 19)

  /** Embedding dimension, SGD learning rate, ranking-loss margin and
    * negative samples per positive triple.
    */
  private val Dim = 32
  private val Lr = 0.05
  private val Margin = 1.0
  private val NegPerPos = 4

  /** A trained embedding model. `score` is higher-is-more-plausible for
    * both kinds (TransE scores are negated distances).
    */
  final class Model(val kind: Kind,
                    val entity: Map[String, Array[Double]],
                    val relation: Map[String, Array[Double]]) extends Serializable {

    def score(t: Triple): Double = score(t.s, t.p, t.o)

    def score(s: String, p: String, o: String): Double = {
      val (es, rp, eo) = (entity.get(s), relation.get(p), entity.get(o))
      if (es.isEmpty || rp.isEmpty || eo.isEmpty) return Double.NegativeInfinity
      kind match {
        case TransE =>
          var d = 0.0; var i = 0
          while (i < es.get.length) { val x = es.get(i) + rp.get(i) - eo.get(i); d += x * x; i += 1 }
          -math.sqrt(d)
        case DistMult =>
          var d = 0.0; var i = 0
          while (i < es.get.length) { d += es.get(i) * rp.get(i) * eo.get(i); i += 1 }
          d
      }
    }

    /** f(θ_s, θ_p): the query vector whose nearest entity neighbours are
      * candidate objects (§5.3). TransE: s + p. DistMult: s ⊙ p.
      */
    def queryVector(s: String, p: String): Option[Array[Double]] =
      for (es <- entity.get(s); rp <- relation.get(p)) yield kind match {
        case TransE   => es.zip(rp).map { case (a, b) => a + b }
        case DistMult => es.zip(rp).map { case (a, b) => a * b }
      }
  }

  private def randVec(rnd: Random): Array[Double] =
    StringSim.l2normalize(Array.fill(Dim)(rnd.nextGaussian()))

  /** Deterministic SGD with margin ranking loss and uniform negative
    * sampling (corrupt the object).
    */
  def train(edges: Seq[Triple], kind: Kind, cfg: Config = Config()): Model = {
    require(edges.nonEmpty, "no edges to train on")
    val rnd = new Random(cfg.seed)
    val ents = (edges.map(_.s) ++ edges.map(_.o)).distinct.sorted.toArray
    val rels = edges.map(_.p).distinct.sorted.toArray
    val eIdx = ents.zipWithIndex.toMap
    val eV = ents.map(_ => randVec(rnd))
    val rV = rels.map(_ => randVec(rnd))
    val rIdx = rels.zipWithIndex.toMap

    def sc(s: Int, p: Int, o: Int): Double = kind match {
      case TransE =>
        var d = 0.0; var i = 0
        while (i < Dim) { val x = eV(s)(i) + rV(p)(i) - eV(o)(i); d += x * x; i += 1 }
        -math.sqrt(math.max(d, 1e-12))
      case DistMult =>
        var d = 0.0; var i = 0
        while (i < Dim) { d += eV(s)(i) * rV(p)(i) * eV(o)(i); i += 1 }
        d
    }

    // Gradient step pushing score(pos) above score(neg) by the margin.
    def step(s: Int, p: Int, oPos: Int, oNeg: Int): Unit = {
      val viol = Margin - sc(s, p, oPos) + sc(s, p, oNeg)
      if (viol <= 0) return
      kind match {
        case TransE =>
          var i = 0
          while (i < Dim) {
            val gPos = eV(s)(i) + rV(p)(i) - eV(oPos)(i) // d/ds of ||.||^2 up to scale
            val gNeg = eV(s)(i) + rV(p)(i) - eV(oNeg)(i)
            eV(s)(i)   -= Lr * (gPos - gNeg)
            rV(p)(i)   -= Lr * (gPos - gNeg)
            eV(oPos)(i) += Lr * gPos
            eV(oNeg)(i) -= Lr * gNeg
            i += 1
          }
        case DistMult =>
          var i = 0
          while (i < Dim) {
            val sP = eV(s)(i); val pP = rV(p)(i)
            eV(s)(i)    += Lr * pP * (eV(oPos)(i) - eV(oNeg)(i))
            rV(p)(i)    += Lr * sP * (eV(oPos)(i) - eV(oNeg)(i))
            eV(oPos)(i) += Lr * sP * pP
            eV(oNeg)(i) -= Lr * sP * pP
            i += 1
          }
      }
      Seq(s, oPos, oNeg).foreach { k =>
        val n = math.sqrt(eV(k).map(x => x * x).sum)
        if (n > 1.0) { var i = 0; while (i < Dim) { eV(k)(i) /= n; i += 1 } }
      }
    }

    val triplesIdx = edges.map(t => (eIdx(t.s), rIdx(t.p), eIdx(t.o))).toArray
    for (_ <- 0 until cfg.epochs; (s, p, o) <- triplesIdx; _ <- 0 until NegPerPos) {
      val oNeg = rnd.nextInt(ents.length)
      if (oNeg != o) step(s, p, o, oNeg)
    }

    new Model(kind, ents.zip(eV).toMap, rels.zip(rV).toMap)
  }

  /** Fact ranking (§5.3): order instances of a high-cardinality predicate
    * of one subject by embedding plausibility — the dominant value first.
    */
  def rankFacts(model: Model, s: String, p: String, objects: Seq[String]): Seq[(String, Double)] =
    objects.map(o => o -> model.score(s, p, o)).sortBy { case (o, sc) => (-sc, o) }

  /** Fact verification (§5.3): facts whose score falls in the lowest
    * `quantile` of their predicate's score distribution are flagged as
    * outliers for auditing.
    */
  def verifyFacts(model: Model, facts: Seq[Triple], quantile: Double = 0.1): Seq[(Triple, Double, Boolean)] = {
    val scored = facts.map(t => (t, model.score(t)))
    val byPred = scored.groupBy(_._1.p).flatMap { case (_, fs) =>
      val cut = fs.map(_._2).sorted.apply(math.max(0, (fs.size * quantile).toInt - 1).max(0))
      fs.map { case (t, sc) => (t, sc, sc <= cut) }
    }
    byPred.toSeq
  }

  /** Missing-fact imputation (§5.3): nearest-neighbour search of
    * f(θ_s, θ_p) in the Vector DB over entity embeddings, optionally
    * filtered by entity type.
    */
  def impute(model: Model, vdb: VectorDB, s: String, p: String, k: Int = 5,
             typeFilter: Option[String] = None): Seq[(String, Double)] =
    model.queryVector(s, p) match {
      case Some(q) => vdb.knn(q, k, typeFilter.map("type" -> _))
      case None    => Seq.empty
    }

  /** Load entity embeddings into the Vector DB with their types as
    * filterable attributes (Figure 7's cross-engine hand-off).
    */
  def loadVectorDB(model: Model, types: Map[String, String]): VectorDB = {
    val vdb = new VectorDB
    model.entity.foreach { case (id, v) =>
      vdb.upsert(id, v, types.get(id).map("type" -> _).toMap)
    }
    vdb
  }
}
