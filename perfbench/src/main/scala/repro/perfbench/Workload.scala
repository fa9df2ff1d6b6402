package repro.perfbench

import org.apache.spark.sql.SparkSession

/** One named benchmark workload. */
trait Workload {
  def name: String
  def defaultScale: Int
  def run(spark: SparkSession, args: Args, tracer: Option[JobAttribution]): Outcome

  protected def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  protected def check(name: String, ok: Boolean, detail: String = ""): Check = Check(name, ok, detail)
}

/** The metric catalog; `BENCHMARK.json` lists the same names and units.
  *
  * End-to-end metrics are common to every workload; each workload gives
  * them its own meaning (see perfbench/README.md). Per-layer metrics
  * belong to the workload that exercises the layer; a traced run of any
  * workload reports the whole list, with 0 for layers it never calls.
  */
object Catalog {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "op_mean_ms" -> "ms",
    "op_p95_ms" -> "ms",
    "throughput_per_s" -> "1/s",
    "success_rate" -> "ratio",
  )

  val constructLayers: Seq[String] = Seq(
    "construct.Linking", "construct.CorrelationClustering", "construct.Fusion",
    "construct.Construction", "ingest")

  val kgqShapes: Seq[String] = Seq("name", "birthplace_hop", "game_by_team", "contains_eq")

  /** Layers whose Spark jobs build the serve workload's graph. */
  val setupLayers: Seq[String] = Seq("engine.Importance", "ml.Nerd", "live.LiveGraph")

  val perLayer: Seq[(String, String)] =
    constructLayers.flatMap(l => Seq(s"$l.jobs" -> "count", s"$l.job_s" -> "s", s"$l.task_s" -> "s")) ++
    Seq(
      "construct.onboard_s" -> "s",
      "construct.delta_s" -> "s",
      "construct.construct_s" -> "s",
      "construct.driver_s" -> "s",
      "construct.jobs_per_delta" -> "count",
      "construct.jobs_per_onboard" -> "count",
      "construct.stages_per_delta" -> "count",
      "construct.shuffle_mb_per_delta" -> "MB",
      "construct.rows_read_per_delta_triple" -> "ratio",
      "construct.linkedNew" -> "count",
      "construct.reusedLinks" -> "count",
      "construct.retractedSubjects" -> "count",
      "construct.fusedFacts" -> "count",
      "construct.kg_facts" -> "count",
      "construct.linking_purity" -> "ratio",
      "construct.linking_hard_error_rate" -> "ratio",
      "construct.linking_recall" -> "ratio",
      "serve.query_p50_ms" -> "ms",
      "serve.query_p99_ms" -> "ms",
      "serve.query_max_qps" -> "1/s",
      "serve.event_p99_ms" -> "ms",
      "serve.curate_p95_ms" -> "ms",
      "serve.generator_late_ms.p99" -> "ms",
      "live.KGQ.parse_us.p50" -> "us",
    ) ++
    kgqShapes.flatMap(s => Seq(s"live.KGQ.$s.execute_us.p50" -> "us", s"live.KGQ.$s.execute_us.p99" -> "us")) ++
    Seq(
      "live.KGQ.candidates.p50" -> "count",
      "live.KGQ.candidates.p99" -> "count",
      "live.InvertedIndex.lookup_us.p50" -> "us",
      "live.InvertedIndex.lookup_us.p99" -> "us",
      "ml.Nerd.resolve_us.p50" -> "us",
      "ml.Nerd.resolve_us.p99" -> "us",
      "live.LiveGraph.upsert_us.p50" -> "us",
      "live.LiveGraph.upsert_us.p99" -> "us",
      "live.LiveGraph.curate_us.p50" -> "us",
      "live.LiveGraph.curate_us.p99" -> "us",
      "live.InvertedIndex.tokens" -> "count",
      "live.KVStore.records" -> "count",
      "jvm.gc_s" -> "s",
      "jvm.heap_used_mb" -> "MB",
      "engine.OpLog.drain_s" -> "s",
      "engine.Importance.view_s" -> "s",
    ) ++
    setupLayers.flatMap(l => Seq(s"$l.jobs" -> "count", s"$l.job_s" -> "s")) ++
    Seq(
      "live.LiveGraph.load_s" -> "s",
      "ml.Nerd.index_build_s" -> "s",
      "trace.overhead_pct" -> "%",
      "trace.unattributed_job_frac" -> "ratio",
    )

  val perLayerUnits: Map[String, String] = perLayer.toMap

  def layerMetric(name: String, value: Double): (String, Metric) =
    name -> Metric(value, perLayerUnits(name))

  /** Job count, job wall time and task time of each layer. */
  def jobTable(jobs: Seq[JobAttribution#Job]): Map[String, (Int, Double, Double)] =
    jobs.groupBy(_.layer).map { case (l, js) =>
      l -> ((js.size, JobAttribution.coveredSeconds(js), js.map(_.taskNs).sum / 1e9))
    }

  /** The layer table as report lines. */
  def jobNotes(table: Map[String, (Int, Double, Double)]): Seq[(String, String)] =
    table.toSeq.sortBy(_._1).map { case (l, (n, js, ts)) =>
      s"layer $l" -> f"$n jobs, $js%.3f s job wall, $ts%.3f s task"
    }

  /** The attribution guard's input: share of jobs with no program layer. */
  def unattributedFrac(jobs: Seq[JobAttribution#Job]): Double =
    if (jobs.isEmpty) 0.0 else jobs.count(_.layer == JobAttribution.Unattributed).toDouble / jobs.size

  val MaxUnattributed = 0.05
}
