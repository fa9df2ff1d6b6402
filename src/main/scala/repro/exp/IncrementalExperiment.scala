package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthKG
import repro.construct.{Construction, Fusion, Matching}
import repro.core.Schema

/** E8 (§2.4): delta-based incremental construction versus full rebuild,
  * and the optimized volatile partition-overwrite path versus join-based
  * volatile fusion. Not a numbered paper figure — it validates the
  * paper's central scaling claims: "knowledge construction always
  * operates by consuming source diffs" and the volatile path "allows
  * overwriting that source partition … without performing expensive
  * joins".
  */
object IncrementalExperiment {

  /** `fullLegs(i)` and `incrementalLegs(i)` are the two legs of pair `i`;
    * each headline figure is a median over the pairs.
    */
  final case class E8Result(fullLegs: Seq[Double], incrementalLegs: Seq[Double],
                            deltaFrac: Double,
                            overwriteSec: Double, joinFusionSec: Double) {
    def fullSec: Double = median(fullLegs)
    def incrementalSec: Double = median(incrementalLegs)
    def constructionSpeedup: Double =
      median(fullLegs.zip(incrementalLegs).map { case (f, i) => f / math.max(i, 1e-9) })
    def volatileSpeedup: Double = joinFusionSec / math.max(overwriteSec, 1e-9)
    def table: String = Table.render(
      "E8 / §2.4 — incremental (delta) construction vs full rebuild; volatile overwrite vs join fusion",
      Seq("experiment", "baseline(s)", "saga path(s)", "speedup"),
      Seq(
        Seq(f"construction, ${deltaFrac * 100}%.0f%% delta", Table.f2(fullSec),
            Table.f2(incrementalSec), Table.f2(constructionSpeedup) + "x"),
        Seq("volatile fusion", Table.f2(joinFusionSec),
            Table.f2(overwriteSec), Table.f2(volatileSpeedup) + "x")))
  }

  private def timeIt[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Construction leg pairs (full rebuild and incremental consume of the
    * same epoch-1 data) per run, all in one JVM: one pair's ratio moves
    * with host noise as much as with the program. Even, so that each leg
    * goes first in as many pairs as the other.
    */
  private val Pairs = 4

  /** One discarded leg pair runs first, so the JVM's warm-up falls on no
    * measured leg. Which leg goes first then alternates from pair to
    * pair, starting with the incremental leg, so any remaining first-leg
    * cost falls on both legs equally.
    */
  def run(spark: SparkSession, scale: Int): E8Result = {
    val u = SynthKG.universe(scale)
    val encoder = KgBuilders.encoderFor(u)
    val model = Matching.defaultModel(Some(encoder))
    val sources = SynthKG.sourceConfigs.take(3)

    // Epoch 0: both systems consume the full bootstrap payloads.
    val bootstrap = sources.map(s => KgBuilders.payloadFor(spark, u, s, 0, None))
    val (state0, _) = Construction.consumeAll(
      Construction.KGState.empty(spark), bootstrap, model, runTruthDiscovery = false)

    // Epoch 1: a small delta. Delta computation is the ingestion
    // platform's job and happens eagerly there (§2.4), so payloads are
    // materialized *before* construction is timed — for both systems.
    import repro.core.Dataflow.pin
    def pinned(p: Construction.SourcePayload) = p.copy(
      added = pin(p.added), deleted = pin(p.deleted),
      updated = pin(p.updated), volatileDump = pin(p.volatileDump))

    val deltas = sources.map(s => pinned(KgBuilders.payloadFor(spark, u, s, 1, Some((s, 0)))))
    val deltaFacts = deltas.map(p => p.added.count() + p.updated.count()).sum.toDouble
    val fullFacts = bootstrap.map(_.added.count()).sum.toDouble

    // Full rebuild baseline: re-link everything at epoch 1 from scratch.
    val epoch1Full = sources.map(s => pinned(KgBuilders.payloadFor(spark, u, s, 1, None)))
    def incrementalLeg() = timeIt {
      Construction.consumeAll(state0, deltas, model, runTruthDiscovery = false)
    }._2
    def fullLeg() = timeIt {
      Construction.fullRebuild(spark, epoch1Full, model, runTruthDiscovery = false)
    }._2
    incrementalLeg(); fullLeg()
    val legs = (0 until Pairs).map { p =>
      if (p % 2 == 0) { val i = incrementalLeg(); (fullLeg(), i) }
      else { val f = fullLeg(); (f, incrementalLeg()) }
    }

    // Volatile: partition overwrite vs join-based merge of the same dump.
    val kgVol = state0.volatile
    val src = sources.head.name
    val dump = kgVol.filter(array_contains(col(Schema.Sources), src))
      .withColumn(Schema.Obj, concat(col(Schema.Obj), lit("0")))
    val (_, ovSec) = timeIt {
      Fusion.overwriteVolatilePartition(kgVol, src, dump).count()
    }
    val (_, joinSec) = timeIt {
      // join-based alternative: full-outer fact-key fusion of the dump
      Fusion.fuse(kgVol, dump).count()
    }

    E8Result(legs.map(_._1), legs.map(_._2), deltaFacts / math.max(1.0, fullFacts), ovSec, joinSec)
  }
}
