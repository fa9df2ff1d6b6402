package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthKG
import repro.construct.{Construction, Matching}
import repro.core.{Dataflow, Schema}
import repro.exp.KgBuilders
import repro.ingest.{Delta, Export}

/** `construct`: onboard sources into an empty KG, then consume per-source
  * deltas of the next epoch with truth discovery on. Each step runs from
  * the source snapshot rows through delta computation and export (forced,
  * as the ingestion platform computes deltas eagerly) to a returned
  * `Construction.consume`.
  *
  * Onboarding is heavy on linking; deltas are small next to the KG, so
  * whole-KG fusion, truth discovery and per-job overhead dominate them.
  */
object ConstructWorkload extends Workload {
  val name = "construct"
  val defaultScale = 12

  final case class Step(kind: String, source: SynthKG.SourceConfig, epoch: Int)

  private def source(n: String) = SynthKG.sourceConfigs.find(_.name == n).get

  /** Onboard two overlapping sources (the first two of the
    * `ConstructionSpec` fleet), then consume musicdb's next-epoch delta.
    * Three steps keep a run near 50 s, so that sets of runs stay
    * affordable; a third onboarding would add about 14 s.
    */
  val steps: Seq[Step] = Seq(
    Step("onboard", source("wiki"), 0),
    Step("onboard", source("musicdb"), 0),
    Step("delta", source("musicdb"), 1),
  )

  /** Floor on pairwise linking purity. It catches a broken linker, not a
    * weaker one. Purity depends on the seed's homonyms and near-duplicates:
    * with these steps it was 0.68 on seed 4, 0.75 on seed 3 and 0.78 to
    * 0.95 on seeds 21 to 25, and 0.62 to 0.67 at scale 40. So
    * `ConstructionSpec`'s 0.75, checked there on one seed, would fail runs
    * of an unchanged program. Every run reports purity, recall and the
    * hard merge-error rate.
    */
  val MinPurity = 0.5

  /** Set-up takes about 40 ms, so it runs this many times and reports the
    * median, which the first, JIT-cold, runs do not move.
    */
  val SetupRuns = 41

  final case class Inputs(u: SynthKG.Universe, model: Matching.Model,
                          records: Map[(String, Int), Seq[SynthKG.SourceRecord]])

  /** Set-up: ground-truth universe, learned encoder and matching model,
    * and every source snapshot the steps consume.
    */
  def setup(scale: Int, seed: Long): Inputs = {
    val u = SynthKG.universe(scale, seed)
    val model = Matching.defaultModel(Some(KgBuilders.encoderFor(u)))
    val epochs = steps.map(s => (s.source, s.epoch)) ++
      steps.filter(_.epoch > 0).map(s => (s.source, s.epoch - 1))
    val records = epochs.distinct.map { case (src, ep) =>
      (src.name, ep) -> SynthKG.sourceRecords(u, src, ep)
    }.toMap
    Inputs(u, model, records)
  }

  /** Ingest one step: snapshot rows → delta → export, forced. */
  def ingest(spark: SparkSession, in: Inputs, st: Step): Construction.SourcePayload = {
    val rows = (ep: Int) => SynthKG.recordsToRows(spark, in.records((st.source.name, ep)))
    val cur = rows(st.epoch)
    val delta =
      if (st.kind == "onboard") Delta.bootstrap(cur)
      else Delta.compute(rows(st.epoch - 1), cur)
    Construction.SourcePayload(
      source = st.source.name,
      added = Dataflow.pin(Export.stableTriples(delta.added)),
      deleted = Dataflow.pin(Export.stableTriples(delta.deleted)),
      updated = Dataflow.pin(Export.stableTriples(delta.updated)),
      volatileDump = Dataflow.pin(Export.volatileTriples(
        delta.volatileDump.join(cur.drop("volatile"), Seq("id")))),
    )
  }

  def run(spark: SparkSession, args: Args, tracer: Option[JobAttribution]): Outcome = {
    val sc = spark.sparkContext
    val scale = args.scale.getOrElse(defaultScale)
    val setups = (1 to SetupRuns).map(_ => timed(setup(scale, args.seed)))
    val in = setups.last._1
    val setupS = Samples.median(setups.map(_._2))

    var state = Construction.KGState.empty(spark)
    val stepS = Seq.newBuilder[(Step, Double)]
    val stats = Seq.newBuilder[Construction.Stats]
    val consumeS = Seq.newBuilder[(Int, Double)]
    var triples = Map.empty[Int, Long]
    steps.zipWithIndex.foreach { case (st, i) =>
      val s0 = System.nanoTime()
      val payload = JobAttribution.within(sc, "ingest", i, Some("ingest"))(ingest(spark, in, st))
      val ((next, stat), cs) = JobAttribution.within(sc, "consume", i)(
        timed(Construction.consume(state, payload, in.model, runTruthDiscovery = true)))
      stepS += st -> (System.nanoTime() - s0) / 1e9
      consumeS += i -> cs
      state = next
      stats += stat
      triples += i -> JobAttribution.within(sc, "bookkeeping", i)(
        Seq(payload.added, payload.deleted, payload.updated).map(_.count()).sum)
    }
    val stepTimes = stepS.result()
    val constructS = stepTimes.map(_._2).sum
    val allStats = stats.result()

    // ------------------------------------------------------------ checks
    val (checks, fingerprint, facts, quality) = JobAttribution.within(sc, "check")(verify(spark, in, state))

    // ------------------------------------------------------------ metrics
    val opMs = stepTimes.map(_._2 * 1000)
    val nTriples = triples.values.sum
    val e2e = Map(
      "setup_s" -> Metric(setupS, "s"),
      "op_mean_ms" -> Metric(opMs.sum / opMs.size, "ms"),
      "op_p95_ms" -> Metric(Samples.pct(opMs, 0.95), "ms"),
      "throughput_per_s" -> Metric(nTriples / constructS, "1/s"),
      "success_rate" -> Metric(1.0, "ratio"),
    )
    def medianOf(kind: String) = Samples.median(stepTimes.filter(_._1.kind == kind).map(_._2))
    val base = Map(
      Catalog.layerMetric("construct.onboard_s", medianOf("onboard")),
      Catalog.layerMetric("construct.delta_s", medianOf("delta")),
      Catalog.layerMetric("construct.construct_s", constructS),
      Catalog.layerMetric("construct.linkedNew", allStats.map(_.linkedNew).sum.toDouble),
      Catalog.layerMetric("construct.reusedLinks", allStats.map(_.reusedLinks).sum.toDouble),
      Catalog.layerMetric("construct.retractedSubjects", allStats.map(_.retractedSubjects).sum.toDouble),
      Catalog.layerMetric("construct.fusedFacts", allStats.map(_.fusedFacts).sum.toDouble),
      Catalog.layerMetric("construct.kg_facts", facts.toDouble),
    ) ++ quality
    val traced = tracer.map { t =>
      t.settle(sc)
      layerMetrics(t, stepTimes.map(_._1), consumeS.result().toMap, triples, constructS)
    }.getOrElse((Map.empty[String, Metric], Seq.empty[Check], Seq.empty[(String, String)]))

    val notes = stepTimes.zipWithIndex.map { case ((st, s), i) =>
      s"step$i" -> f"${st.kind} ${st.source.name} epoch ${st.epoch}: $s%.3f s, ${triples(i)} triples"
    }
    Outcome(
      attempted = steps.size,
      failed = 0,
      checks = checks ++ traced._2,
      e2e = e2e,
      layer = base ++ traced._1,
      fingerprint = fingerprint,
      notes = notes ++ traced._3)
  }

  private def layerMetrics(t: JobAttribution, kinds: Seq[Step], consumeS: Map[Int, Double],
                           triples: Map[Int, Long], wallS: Double)
      : (Map[String, Metric], Seq[Check], Seq[(String, String)]) = {
    val measured = t.allJobs.filter(j => j.phase == "ingest" || j.phase == "consume")
    val table = Catalog.jobTable(measured)
    val perLayer = Catalog.constructLayers.flatMap { l =>
      val (n, js, ts) = table.getOrElse(l, (0, 0.0, 0.0))
      Seq(Catalog.layerMetric(s"$l.jobs", n), Catalog.layerMetric(s"$l.job_s", js),
          Catalog.layerMetric(s"$l.task_s", ts))
    }
    val consumeJobs = measured.filter(_.phase == "consume")
    val driverS = consumeS.map { case (i, s) =>
      s - JobAttribution.coveredSeconds(consumeJobs.filter(_.step == i))
    }.sum
    val deltaSteps = kinds.zipWithIndex.filter(_._1.kind == "delta").map(_._2).toSet
    val onboardSteps = kinds.zipWithIndex.filter(_._1.kind == "onboard").map(_._2).toSet
    val deltaJobs = measured.filter(j => deltaSteps.contains(j.step))
    val nDelta = math.max(1, deltaSteps.size).toDouble
    val deltaTriples = deltaSteps.toSeq.map(triples).sum
    val unattributed = Catalog.unattributedFrac(measured)
    val overhead = 100.0 * t.handlerSeconds / wallS
    val metrics = perLayer ++ Seq(
      Catalog.layerMetric("construct.driver_s", driverS),
      Catalog.layerMetric("construct.jobs_per_delta", deltaJobs.size / nDelta),
      Catalog.layerMetric("construct.jobs_per_onboard",
        measured.count(j => onboardSteps.contains(j.step)) / math.max(1, onboardSteps.size).toDouble),
      Catalog.layerMetric("construct.stages_per_delta", deltaJobs.map(_.stages).sum / nDelta),
      Catalog.layerMetric("construct.shuffle_mb_per_delta",
        deltaJobs.map(_.shuffleWriteBytes).sum / 1e6 / nDelta),
      Catalog.layerMetric("construct.rows_read_per_delta_triple",
        deltaJobs.map(_.recordsRead).sum.toDouble / math.max(1L, deltaTriples)),
      Catalog.layerMetric("trace.overhead_pct", overhead),
      Catalog.layerMetric("trace.unattributed_job_frac", unattributed),
    )
    (metrics.toMap, Seq(check("attribution_guard", unattributed <= Catalog.MaxUnattributed,
      f"unattributed ${unattributed * 100}%.1f%% of ${measured.size} jobs")), Catalog.jobNotes(table))
  }

  /** Linking quality against the ground truth, link coverage, provenance
    * alignment, and the KG fingerprint. Recall is held to the
    * `ConstructionSpec` threshold and purity to [[MinPurity]]. The hard
    * merge-error rate is reported, not gated: over one seed's few dozen
    * pairs it crosses that spec's 0.1 bound on some seeds (0.145 on seed 4).
    */
  def verify(spark: SparkSession, in: Inputs, state: Construction.KGState)
      : (Seq[Check], String, Long, Map[String, Metric]) = {
    import spark.implicits._
    val latest = steps.groupBy(_.source.name).map { case (n, ss) => n -> ss.map(_.epoch).max }
    val current = latest.toSeq.flatMap { case (n, ep) => in.records((n, ep)) }
    val consumed = in.records.values.flatten.map(r => r.id -> r.trueId).toMap
    val links = state.links.as[(String, String)].collect().toMap

    val unlinked = current.map(_.id).filterNot(links.contains)
    val outside = links.values.count(!_.startsWith(Schema.KgNs))
    val nameOf = (tid: String) => repro.ml.StringSim.normalize(in.u.byId(tid).name)
    val byKg = links.toSeq.filter(l => consumed.contains(l._1)).groupBy(_._2).values.filter(_.size > 1)
    var same = 0L; var homonym = 0L; var total = 0L
    byKg.foreach { grp =>
      val tids = grp.map(g => consumed(g._1)).toIndexedSeq
      for (i <- tids.indices; j <- (i + 1) until tids.size) {
        total += 1
        if (tids(i) == tids(j)) same += 1
        else if (nameOf(tids(i)) == nameOf(tids(j))) homonym += 1
      }
    }
    val purity = if (total == 0) 1.0 else same.toDouble / total
    val hard = if (total == 0) 0.0 else (total - same - homonym).toDouble / total
    val byTrue = current.map(r => r.id -> r.trueId).groupBy(_._2).values.filter(_.size > 1)
    val (merged, pairs) = byTrue.foldLeft((0L, 0L)) { case ((m, p), grp) =>
      val ks = grp.map(g => links.get(g._1)).toIndexedSeq
      val ps = for (i <- ks.indices; j <- (i + 1) until ks.size)
        yield if (ks(i).isDefined && ks(i) == ks(j)) 1L else 0L
      (m + ps.sum, p + ps.size)
    }
    val recall = if (pairs == 0) 0.0 else merged.toDouble / pairs
    val misaligned = state.stable.filter(size(col(Schema.Sources)) =!= size(col(Schema.Trust))).count()

    def rows(tag: String, df: DataFrame): Seq[String] =
      df.collect().toSeq.map(r => tag + Fingerprint.cell(r))
    val stableRows = rows("s", state.stable)
    val fp = Fingerprint.of(stableRows ++ rows("v", state.volatile) ++ rows("l", state.links))

    val checks = Seq(
      check("every_record_linked", unlinked.isEmpty, s"${unlinked.size} of ${current.size} unlinked"),
      check("links_in_kg_namespace", outside == 0, s"$outside links outside ${Schema.KgNs}"),
      check("linking_purity", purity > MinPurity, f"$purity%.4f over $total pairs (> $MinPurity)"),
      check("linking_recall", recall > 0.6, f"$recall%.4f over $pairs pairs (> 0.6)"),
      check("sources_trust_aligned", misaligned == 0, s"$misaligned misaligned facts"),
    )
    val quality = Map(
      Catalog.layerMetric("construct.linking_purity", purity),
      Catalog.layerMetric("construct.linking_hard_error_rate", hard),
      Catalog.layerMetric("construct.linking_recall", recall),
    )
    (checks, fp, stableRows.size.toLong, quality)
  }
}
