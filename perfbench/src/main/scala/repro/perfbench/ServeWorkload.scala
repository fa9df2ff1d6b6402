package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{Executors, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import java.util.concurrent.locks.LockSupport
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.SynthKG
import repro.core.Dataflow
import repro.engine.{AnalyticsStore, Importance, OpLog}
import repro.exp.{KgBuilders, LiveLatencyExperiment}
import repro.live.{KGQ, LiveGraph}
import repro.live.Stores.InvertedIndex
import repro.ml.Nerd

/** `serve`: the live graph over a direct KG, queried while it is written.
  *
  * Set-up publishes the KG through the op log to the analytics store,
  * loads the stable view, builds the NERD index over the importance view
  * and ingests warm-up events. The measured window has two halves, with
  * one writer thread running beside both at fixed rates: NERD-resolved
  * live events (`resolveEvent` + `ingest`) and `EditFact`/`BlockFact`
  * curations.
  *   - Open loop: the E7 query mix arrives at a fixed rate; each query is
  *     timed from its scheduled send time.
  *   - Closed loop: `nproc / 2` query clients run flat out; its latencies
  *     and rate are the end-to-end figures, because open-loop latency
  *     swings with the machine's thread wake-up and queueing noise.
  * No Spark job runs in the window, so store, KGQ and NERD costs stand
  * alone. After the writes stop, a seeded query sample must return the
  * same rows from `KGQ.Engine` as from [[BruteKGQ]].
  */
object ServeWorkload extends Workload {
  val name = "serve"
  val defaultScale = 100

  /** Open-loop arrival rate: about a third of the closed-loop capacity at
    * the default scale on a 4-core machine, where the open loop's
    * `nproc - 2` workers run about half busy.
    */
  val openLoopQps = 300.0
  val eventsPerS = 20.0
  val curationsPerS = 5.0
  val warmEvents = 200
  val warmUpS = 2.0
  val sampleQueries = 200
  /** Length of one closed-loop block (see [[Blocks]]). */
  val BlockS = 0.5
  /** Latency charged to a query that failed: it misses every limit. */
  val FailedMs = 1e6

  def shapeOf(q: String): String =
    if (q.contains("birthplace ->")) "birthplace_hop"
    else if (q.startsWith("FIND sports_game")) "game_by_team"
    else if (q.contains(" ~ ")) "contains_eq"
    else "name"

  final class Live(val graph: LiveGraph, val er: Nerd.Index) {
    val engine = new KGQ.Engine(graph.kv, graph.index)
  }

  /** Per-layer samples, filled only by the traced run. */
  final class LayerSamples {
    val parseUs = new Samples
    val executeUs: Map[String, Samples] = Catalog.kgqShapes.map(_ -> new Samples).toMap
    val candidates = new Samples
    val lookupUs = new Samples
    val resolveUs = new Samples
    val upsertUs = new Samples
    val curateUs = new Samples
    val probeNs = new AtomicLong
    val queryNs = new AtomicLong
  }

  /** The driving posting-set size the engine starts from: the smallest
    * index lookup over the literal constraints and the type, or the whole
    * store when the query is unconstrained. Each lookup is timed.
    */
  private def drivingCandidates(q: KGQ.Query, idx: InvertedIndex, kvSize: Int, ls: LayerSamples): Int = {
    val lits = q.conds.collect { case KGQ.Eq(p, v) => (p, v); case KGQ.Contains(p, v) => (p, v) } ++
      q.etype.map(t => ("type", t)).toSeq
    if (lits.isEmpty) kvSize
    else lits.map { case (p, v) =>
      val t0 = System.nanoTime()
      val n = idx.lookup(v, Some(p)).size
      ls.lookupUs.add((System.nanoTime() - t0) / 1e3)
      n
    }.min
  }

  private def runQuery(live: Live, text: String, traced: Option[LayerSamples]): Seq[KGQ.ResultRow] =
    traced match {
      case None => live.engine.query(text)
      case Some(ls) =>
        val t0 = System.nanoTime()
        val q = KGQ.parse(text)
        val t1 = System.nanoTime()
        ls.candidates.add(drivingCandidates(q, live.graph.index, live.graph.kv.size, ls))
        val t2 = System.nanoTime()
        val rows = live.engine.execute(q)
        val t3 = System.nanoTime()
        ls.parseUs.add((t1 - t0) / 1e3)
        ls.executeUs(shapeOf(text)).add((t3 - t2) / 1e3)
        ls.probeNs.addAndGet(t2 - t1)
        ls.queryNs.addAndGet(t3 - t0)
        rows
    }

  /** One scheduled write: a live event or a curation. */
  sealed trait Write { def dueS: Double }
  final case class EventW(dueS: Double, ev: SynthKG.LiveEvent) extends Write
  final case class CurateW(dueS: Double, c: LiveGraph.Curation) extends Write

  def writeSchedule(u: SynthKG.Universe, seed: Long, windowS: Double,
                    events: Seq[SynthKG.LiveEvent]): Seq[Write] = {
    val rnd = new scala.util.Random(seed)
    val persons = u.byType("person").filter(e => e.attrs.contains("birth_year") && e.aliases.nonEmpty)
    val nEv = math.ceil(eventsPerS * windowS).toInt
    val nCur = math.ceil(curationsPerS * windowS).toInt
    val evs = events.slice(warmEvents, warmEvents + nEv).zipWithIndex.map { case (ev, i) =>
      EventW(i / eventsPerS, ev)
    }
    val curs = (0 until nCur).map { i =>
      val p = persons(rnd.nextInt(persons.size))
      val id = KgBuilders.kgIdOf(p.id)
      val c =
        if (i % 2 == 0) {
          val old = p.attrs("birth_year")
          LiveGraph.EditFact(id, "birth_year", old, (old.toInt + 1 + rnd.nextInt(3)).toString)
        } else LiveGraph.BlockFact(id, "alias", p.aliases(rnd.nextInt(p.aliases.size)))
      CurateW(i / curationsPerS + 0.5 / curationsPerS, c)
    }
    (evs ++ curs).sortBy(_.dueS)
  }

  /** Closed-loop latencies, kept per consecutive time block by completion
    * time. Each end-to-end figure is the median over blocks, so a stall of
    * the machine moves one block rather than the figure.
    */
  final class Blocks(startNs: Long, blockNs: Long, n: Int) {
    private val lat = IndexedSeq.fill(n)(new Samples)
    def add(endNs: Long, ms: Double): Unit = {
      val i = ((endNs - startNs) / blockNs).toInt
      if (i >= 0 && i < n) lat(i).add(ms)
    }
    def median(f: Samples => Double): Double = Samples.median(lat.filter(_.size > 0).map(f))
    def ratePerS: Double = median(_.size / (blockNs / 1e9))
  }

  /** `clients` threads run queries back to back until `endNs`, passing
    * each query's completion time and latency to `record`; returns the
    * number completed.
    */
  private def closedLoop(clients: Int, endNs: Long, queries: Seq[String], run: String => Unit,
                         failures: AtomicInteger,
                         record: (Long, Double) => Unit = (_, _) => ()): Long = {
    val next = new AtomicInteger
    val done = new AtomicLong
    val threads = (0 until clients).map { c =>
      val t = new Thread(() => {
        while (System.nanoTime() < endNs) {
          val q = queries(math.floorMod(next.getAndIncrement(), queries.size))
          val t0 = System.nanoTime()
          val ok = try { run(q); done.incrementAndGet(); true }
                   catch { case _: Exception => failures.incrementAndGet(); false }
          val t1 = System.nanoTime()
          record(t1, if (ok) (t1 - t0) / 1e6 else FailedMs)
        }
      }, s"perfbench-client-$c")
      t.start(); t
    }
    threads.foreach(_.join())
    done.get
  }

  /** Park until shortly before the deadline, then spin: accurate to a few
    * microseconds without burning a core between arrivals.
    */
  private def sleepUntil(deadlineNs: Long): Unit = {
    var left = deadlineNs - System.nanoTime()
    while (left > 0) {
      if (left > 200000L) LockSupport.parkNanos(left - 100000L) else Thread.onSpinWait()
      left = deadlineNs - System.nanoTime()
    }
  }

  def run(spark: SparkSession, args: Args, tracer: Option[JobAttribution]): Outcome = {
    val scale = args.scale.getOrElse(defaultScale)
    val nproc = Runtime.getRuntime.availableProcessors
    // Half the cores: the writer, GC and JIT threads get the rest. With
    // `nproc - 1` clients on 4 cores the rate rose only 8% while mean
    // latency rose 40%: the extra client measured CPU queueing.
    val clients = math.max(1, nproc / 2)
    val traced = tracer.map(_ => new LayerSamples)

    // ------------------------------------------------------------- set-up
    // Spark part once: the KG snapshot goes through the op log to the
    // analytics store, whose triples give the stable view and, with the
    // importance view, the NERD entity view. The in-memory part (load,
    // NERD index, warm-up events) runs three times.
    val sc = spark.sparkContext
    val ((u, view, entries, encoder, engineS), sparkS) = JobAttribution.within(sc, "setup")(timed {
      val u = SynthKG.universe(scale, args.seed)
      val kg = JobAttribution.within(sc, "input")(Dataflow.pin(KgBuilders.directKG(spark, u)))
      val log = new OpLog.Log
      val store = new AnalyticsStore.Store
      val (_, drainS) = timed {
        store.stage("snap-0", kg)
        log.append("snapshot", "snap-0")
        new OpLog.Orchestrator(log, new OpLog.MetadataStore, Seq(store)).drain()
      }
      // One PageRank iteration: the NERD prior needs only a rough ranking,
      // and the importance view is set-up here, not the measured path.
      val (importance, importanceS) = timed(Importance.importanceView(store.triples, prIterations = 1))
      val view = LiveGraph.stableView(store.triples)
      val entries = Nerd.buildEntries(store.triples, importance)
      (u, view, entries, KgBuilders.encoderFor(u), Map("drain" -> drainS, "importance" -> importanceS))
    })
    val windowS = args.seconds
    val events = SynthKG.liveEvents(u, warmEvents + math.ceil(eventsPerS * windowS).toInt, args.seed + 17)
    def buildLive(): (Live, Double, Double) = {
      val g = new LiveGraph()
      val (_, loadS) = timed(g.loadStable(view))
      val (er, indexS) = timed(new Nerd.Index(entries, encoder))
      events.take(warmEvents).foreach(ev => g.ingest(LiveGraph.resolveEvent(ev, er)))
      (new Live(g, er), loadS, indexS)
    }
    val builds = (1 to 3).map(_ => timed(buildLive()))
    val (live, _, _) = builds.last._1
    val setupS = sparkS + Samples.median(builds.map(_._2))
    // JIT warm-up: the closed loop, untraced, for a fixed time.
    closedLoop(clients, System.nanoTime() + (warmUpS * 1e9).toLong,
      LiveLatencyExperiment.workload(u, 4000, args.seed + 5), q => live.engine.query(q), new AtomicInteger)

    // ------------------------------------------------------------ window
    val halfS = windowS / 2
    val openQs = LiveLatencyExperiment.workload(u, math.ceil(openLoopQps * halfS).toInt, args.seed + 31)
    val closedQs = LiveLatencyExperiment.workload(u, 4000, args.seed + 37)
    val schedule = writeSchedule(u, args.seed + 41, windowS, events)
    val failures = new AtomicInteger
    val queryMs = new Samples
    val lateMs = new Samples
    val eventMs = new Samples
    val curateMs = new Samples
    // Start the window from a collected heap, so set-up garbage does not
    // decide when the window's collections fall.
    System.gc()
    val gcBefore = gcMillis()

    val start = System.nanoTime()
    val writer = new Thread(() => schedule.foreach { w =>
      val due = start + (w.dueS * 1e9).toLong
      sleepUntil(due)
      try w match {
        case EventW(_, ev) =>
          val t0 = System.nanoTime()
          val rec = LiveGraph.resolveEvent(ev, live.er)
          val t1 = System.nanoTime()
          live.graph.ingest(rec)
          val t2 = System.nanoTime()
          eventMs.add((t2 - due) / 1e6)
          traced.foreach { ls => ls.resolveUs.add((t1 - t0) / 1e3); ls.upsertUs.add((t2 - t1) / 1e3) }
        case CurateW(_, c) =>
          val t0 = System.nanoTime()
          live.graph.curate(c)
          val t1 = System.nanoTime()
          curateMs.add((t1 - due) / 1e6)
          traced.foreach(_.curateUs.add((t1 - t0) / 1e3))
      } catch { case _: Exception => failures.incrementAndGet() }
    }, "perfbench-writer")
    writer.start()

    // Open loop: one generator, nproc - 2 workers, the writer.
    val pool = Executors.newFixedThreadPool(math.max(1, nproc - 2))
    openQs.zipWithIndex.foreach { case (q, i) =>
      val due = start + (i / openLoopQps * 1e9).toLong
      sleepUntil(due)
      lateMs.add((System.nanoTime() - due) / 1e6)
      pool.submit(new Runnable {
        def run(): Unit = {
          val ok = try { runQuery(live, q, traced); true }
                   catch { case _: Exception => failures.incrementAndGet(); false }
          queryMs.add(if (ok) (System.nanoTime() - due) / 1e6 else FailedMs)
        }
      })
    }
    pool.shutdown()
    pool.awaitTermination(120, TimeUnit.SECONDS)

    // Closed loop: the clients and the writer.
    val closedStart = math.max(System.nanoTime(), start + (halfS * 1e9).toLong)
    sleepUntil(closedStart)
    val closedEnd = closedStart + (halfS * 1e9).toLong
    val blocks = new Blocks(closedStart, (BlockS * 1e9).toLong, math.max(1, (halfS / BlockS).round.toInt))
    val done = closedLoop(clients, closedEnd, closedQs,
      q => runQuery(live, q, traced), failures, blocks.add)
    val closedS = (System.nanoTime() - closedStart) / 1e9
    writer.join()
    val gcS = (gcMillis() - gcBefore) / 1e3
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6

    // --------------------------------------------------- quiescent check
    val sample = LiveLatencyExperiment.workload(u, sampleQueries, args.seed + 43)
    val compared = sample.map { text =>
      val q = KGQ.parse(text)
      val got = try live.engine.execute(q) catch { case _: Exception => null }
      (text, got, BruteKGQ.query(live.graph.kv, q))
    }
    val mismatches = compared.count { case (_, got, want) => got != want }
    val fingerprint = Fingerprint.of(compared.map { case (text, _, want) =>
      text + " => " + want.map(r => r.id + Fingerprint.cell(r.values)).mkString(";")
    })

    val attempted = openQs.size + done + schedule.size + sample.size
    val failed = failures.get + mismatches
    val e2e = Map(
      "setup_s" -> Metric(setupS, "s"),
      "op_mean_ms" -> Metric(blocks.median(_.mean), "ms"),
      "op_p95_ms" -> Metric(blocks.median(_.pct(0.95)), "ms"),
      "throughput_per_s" -> Metric(blocks.ratePerS, "1/s"),
      "success_rate" -> Metric(1.0 - failed.toDouble / attempted, "ratio"),
    )
    val base = Map(
      Catalog.layerMetric("serve.query_p50_ms", queryMs.median),
      Catalog.layerMetric("serve.query_p99_ms", queryMs.pct(0.99)),
      Catalog.layerMetric("serve.query_max_qps", done / closedS),
      Catalog.layerMetric("serve.event_p99_ms", eventMs.pct(0.99)),
      Catalog.layerMetric("serve.curate_p95_ms", curateMs.pct(0.95)),
      Catalog.layerMetric("serve.generator_late_ms.p99", lateMs.pct(0.99)),
      Catalog.layerMetric("live.InvertedIndex.tokens", live.graph.index.tokenCount),
      Catalog.layerMetric("live.KVStore.records", live.graph.kv.size),
      Catalog.layerMetric("jvm.gc_s", gcS),
      Catalog.layerMetric("jvm.heap_used_mb", heapMb),
      Catalog.layerMetric("engine.OpLog.drain_s", engineS("drain")),
      Catalog.layerMetric("engine.Importance.view_s", engineS("importance")),
      Catalog.layerMetric("live.LiveGraph.load_s", Samples.median(builds.map(_._1._2))),
      Catalog.layerMetric("ml.Nerd.index_build_s", Samples.median(builds.map(_._1._3))),
    )
    val jobs = tracer.map { t =>
      t.settle(sc)
      val setupJobs = t.allJobs.filter(_.phase == "setup")
      val table = Catalog.jobTable(setupJobs)
      val unattributed = Catalog.unattributedFrac(setupJobs)
      (Catalog.setupLayers.flatMap { l =>
        val (n, js, _) = table.getOrElse(l, (0, 0.0, 0.0))
        Seq(Catalog.layerMetric(s"$l.jobs", n), Catalog.layerMetric(s"$l.job_s", js))
      }.toMap + Catalog.layerMetric("trace.unattributed_job_frac", unattributed),
       Seq(check("attribution_guard", unattributed <= Catalog.MaxUnattributed,
         f"unattributed ${unattributed * 100}%.1f%% of ${setupJobs.size} set-up jobs")),
       Catalog.jobNotes(table))
    }.getOrElse((Map.empty[String, Metric], Seq.empty[Check], Seq.empty[(String, String)]))
    val layer = traced.map { ls =>
      Map(
        Catalog.layerMetric("live.KGQ.parse_us.p50", ls.parseUs.median),
        Catalog.layerMetric("live.KGQ.candidates.p50", ls.candidates.median),
        Catalog.layerMetric("live.KGQ.candidates.p99", ls.candidates.pct(0.99)),
        Catalog.layerMetric("live.InvertedIndex.lookup_us.p50", ls.lookupUs.median),
        Catalog.layerMetric("live.InvertedIndex.lookup_us.p99", ls.lookupUs.pct(0.99)),
        Catalog.layerMetric("ml.Nerd.resolve_us.p50", ls.resolveUs.median),
        Catalog.layerMetric("ml.Nerd.resolve_us.p99", ls.resolveUs.pct(0.99)),
        Catalog.layerMetric("live.LiveGraph.upsert_us.p50", ls.upsertUs.median),
        Catalog.layerMetric("live.LiveGraph.upsert_us.p99", ls.upsertUs.pct(0.99)),
        Catalog.layerMetric("live.LiveGraph.curate_us.p50", ls.curateUs.median),
        Catalog.layerMetric("live.LiveGraph.curate_us.p99", ls.curateUs.pct(0.99)),
        Catalog.layerMetric("trace.overhead_pct", 100.0 * ls.probeNs.get / math.max(1L, ls.queryNs.get)),
      ) ++ Catalog.kgqShapes.flatMap { s =>
        Seq(Catalog.layerMetric(s"live.KGQ.$s.execute_us.p50", ls.executeUs(s).median),
            Catalog.layerMetric(s"live.KGQ.$s.execute_us.p99", ls.executeUs(s).pct(0.99)))
      }
    }.getOrElse(Map.empty)

    Outcome(
      attempted = attempted,
      failed = failed,
      checks = check("engine_matches_brute_force", mismatches == 0,
        s"$mismatches of ${sample.size} sample queries differ") +: jobs._2,
      e2e = e2e,
      layer = base ++ layer ++ jobs._1,
      fingerprint = fingerprint,
      notes = Seq(
        "open_loop" -> f"${openQs.size} queries at $openLoopQps%.0f/s over $halfS%.1f s",
        "closed_loop" -> f"${done} queries by $clients clients over $closedS%.2f s",
        "writes" -> s"${schedule.size} (${eventMs.size} events, ${curateMs.size} curations)",
        "setup" -> f"spark $sparkS%.2f s, in-memory ${builds.map(b => f"${b._2}%.2f").mkString(",")} s",
      ) ++ jobs._3)
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}
