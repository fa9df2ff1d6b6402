package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthKG
import repro.core.Schema
import repro.ml.StringSim

/** Shared builders for the evaluation experiments: a "direct" KG
  * materialization from the ground-truth universe (for serving-side
  * experiments that do not depend on construction accuracy), learned
  * encoder training, and payload preparation for construction-side
  * experiments.
  */
object KgBuilders {

  /** KG id of a true entity. */
  def kgIdOf(trueId: String): String = Schema.mintKgId("direct|" + trueId)

  /** Materialize the ground-truth universe directly as KG extended
    * triples (subjects/objects in the KG namespace): the state knowledge
    * construction converges to with perfect linking. Provenance arrays
    * reflect which configured sources cover each entity, so identity
    * counts and truth-discovery inputs are realistic.
    */
  def directKG(spark: SparkSession, u: SynthKG.Universe): DataFrame = {
    val srcs = SynthKG.sourceConfigs
    val rows = u.entities.flatMap { e =>
      val covering = srcs.filter(s => s.coverage.get(e.etype).exists(c =>
        SynthKG.unitHash(s"${e.id}|${s.name}|cov") < c))
      val (names, trusts) =
        if (covering.isEmpty) (Seq("curated"), Seq(0.99))
        else (covering.map(_.name), covering.map(_.trust))
      val conf = 1.0 - names.zip(trusts).map { case (_, t) => 1.0 - t }.product
      val id = kgIdOf(e.id)
      def simple(p: String, o: String) =
        (id, p, null: String, null: String, o, "en", names, trusts, conf)
      val base = Seq(simple("type", e.etype), simple("name", e.name)) ++
        e.aliases.map(a => simple("alias", a)) ++
        e.attrs.map { case (p, v) => simple(p, v) } ++
        e.refs.map { case (p, t) => simple(p, kgIdOf(t)) }
      val comp = e.composites.zipWithIndex.flatMap { case ((pred, rmap), i) =>
        rmap.map { case (rp, v) =>
          val obj = if (u.byId.contains(v)) kgIdOf(v) else v
          (id, pred, s"$id#r$i", rp, obj, "en", names, trusts, conf)
        }
      }
      base ++ comp
    }
    Schema.fromTuples(spark, rows)
  }

  /** Train the learned string encoder with distant supervision from the
    * universe's alias clusters (§5.1) — the same signal the production
    * system harvests from the KG itself.
    */
  def encoderFor(u: SynthKG.Universe): StringSim.LearnedEncoder =
    StringSim.trainEncoder(u.entities.map(_.allNames).filter(_.size > 1))

  /** Build one construction payload for a source at an epoch, using the
    * ingestion platform's delta computation (bootstrap at epoch 0 /
    * onboarding epoch). `prev` carries both the epoch and the config the
    * source was last consumed with — the config can change between runs
    * (e.g. a pipeline upgraded to richer predicate coverage), which
    * surfaces as Updated deltas.
    */
  def payloadFor(spark: SparkSession, u: SynthKG.Universe, src: SynthKG.SourceConfig,
                 epoch: Int, prev: Option[(SynthKG.SourceConfig, Int)],
                 maxEpoch: Int = 8): repro.construct.Construction.SourcePayload = {
    import repro.ingest.{Delta, Export}
    val cur = SynthKG.recordsToRows(spark, SynthKG.sourceRecords(u, src, epoch, maxEpoch))
    val delta = prev match {
      case Some((prevSrc, pe)) =>
        val prevRows = SynthKG.recordsToRows(spark, SynthKG.sourceRecords(u, prevSrc, pe, maxEpoch))
        Delta.compute(prevRows, cur, Set("volatile"))
      case None => Delta.bootstrap(cur, Set("volatile"))
    }
    repro.construct.Construction.SourcePayload(
      source = src.name,
      added = Export.stableTriples(delta.added),
      deleted = Export.stableTriples(delta.deleted),
      updated = Export.stableTriples(delta.updated),
      volatileDump = Export.volatileTriples(
        delta.volatileDump.join(cur.drop("volatile"), Seq("id"))),
    )
  }
}
