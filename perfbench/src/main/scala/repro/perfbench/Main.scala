package repro.perfbench

import java.security.MessageDigest
import org.apache.spark.sql.SparkSession

/** What one workload run produced. `attempted` and `failed` count the
  * workload's operations; the result line adds the checks to both. `e2e`
  * and `layer` hold the metrics the run measured; layers a workload never
  * exercises are filled in as 0 by [[Main]], so every traced result
  * carries the whole per-layer set.
  */
final case class Outcome(
    attempted: Long,
    failed: Long,
    checks: Seq[Check],
    e2e: Map[String, Metric],
    layer: Map[String, Metric],
    fingerprint: String,
    notes: Seq[(String, String)] = Seq.empty,
) {
  def correct: Boolean = failed == 0 && checks.forall(_.ok)
}

final case class Check(name: String, ok: Boolean, detail: String)

/** Run arguments; `scale` overrides the workload's default (self-tests). */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      scale: Option[Int])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
         kv.get("trace").contains("1"), scale = None)
  }
}

/** Benchmark entry point: runs one workload against a SparkSession from
  * `repro.jobs.Jobs.session` and prints a human-readable report followed
  * by one JSON result line.
  *
  * {{{
  *   Main --workload construct|serve --seed N --seconds S --trace 0|1
  * }}}
  */
object Main {

  val workloads: Map[String, Workload] = Seq(ConstructWorkload, ServeWorkload)
    .map(w => w.name -> w).toMap

  def main(argv: Array[String]): Unit = {
    val args = Args.parse(argv)
    val wl = workloads.getOrElse(args.workload,
      throw new IllegalArgumentException(s"unknown workload ${args.workload}"))
    val spark = repro.jobs.Jobs.session(s"perfbench-${wl.name}")
    spark.sparkContext.setLogLevel("ERROR")
    val code = try {
      val out = runWorkload(spark, wl, args)
      report(spark, wl, args, out).foreach(println)
      if (out.correct) 0 else 1
    } finally spark.stop()
    sys.exit(code)
  }

  /** Run a workload, with job attribution installed when tracing. */
  def runWorkload(spark: SparkSession, wl: Workload, args: Args): Outcome = {
    val tracer = if (args.trace) {
      val t = new JobAttribution
      spark.sparkContext.addSparkListener(t)
      Some(t)
    } else None
    try wl.run(spark, args, tracer)
    finally tracer.foreach(spark.sparkContext.removeSparkListener)
  }

  def provenance(spark: SparkSession, wl: Workload, args: Args): Seq[(String, String)] = {
    val sc = spark.sparkContext
    val settings = spark.conf.getAll.filter { case (k, _) =>
      k.startsWith("spark.sql.") || k == "spark.master" || k == "spark.callstack.depth"
    }.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(",")
    Seq(
      "git_sha" -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
      "source_hash" -> sys.props.getOrElse("perfbench.source_hash", "unknown"),
      "workload" -> wl.name,
      "seed" -> args.seed.toString,
      "scale" -> args.scale.getOrElse(wl.defaultScale).toString,
      "seconds" -> args.seconds.toString,
      "trace" -> (if (args.trace) "1" else "0"),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "default_parallelism" -> sc.defaultParallelism.toString,
      "spark_version" -> spark.version,
      "scala_version" -> scala.util.Properties.versionNumberString,
      "java_version" -> sys.props.getOrElse("java.version", "?"),
      "driver_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
      "session_settings" -> settings,
    )
  }

  /** Report lines; the last one is the JSON result. */
  def report(spark: SparkSession, wl: Workload, args: Args, out: Outcome): Seq[String] = {
    val prov = provenance(spark, wl, args) ++ out.notes
    val metrics =
      if (args.trace) Catalog.perLayer.map { case (n, u) => n -> out.layer.getOrElse(n, Metric(0.0, u)) }
      else Catalog.endToEnd.map { case (n, _) => n -> out.e2e(n) }
    val human =
      prov.map { case (k, v) => s"# provenance $k $v" } ++
      out.checks.map(c => s"# check ${c.name} ${if (c.ok) "ok" else "FAILED"} ${c.detail}") ++
      Seq(s"# fingerprint ${out.fingerprint}") ++
      (out.e2e ++ out.layer).toSeq.sortBy(_._1).map { case (n, m) => s"# metric $n ${fmt(m.value)} ${m.unit}" }
    val json = "{" +
      s""""correct": ${out.correct}, "attempted": ${out.attempted + out.checks.size}, """ +
      s""""failed": ${out.failed + out.checks.count(!_.ok)}, """ +
      s""""metrics": {${metrics.map { case (n, m) =>
        s"""${Json.str(n)}: {"value": ${fmt(m.value)}, "unit": ${Json.str(m.unit)}}""" }.mkString(", ")}}""" +
      "}"
    human :+ json
  }

  def fmt(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""
}

/** Order-independent fingerprint of a set of output rows: the SHA-256 of
  * the sorted per-row digests, so row order and partitioning never matter.
  */
object Fingerprint {
  private def sha(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map("%02x".format(_)).mkString

  def of(rows: Iterable[String]): String = sha(rows.map(sha).toSeq.sorted.mkString("\n")).take(16)

  /** Stable text of a value: doubles to 9 significant digits, so summation
    * order inside an aggregate does not change the fingerprint.
    */
  def cell(v: Any): String = v match {
    case null => "null"
    case d: Double => f"$d%.9g"
    case s: scala.collection.Seq[_] => s.map(cell).mkString("[", ",", "]")
    case m: scala.collection.Map[_, _] =>
      m.toSeq.map { case (k, x) => s"${cell(k)}=${cell(x)}" }.sorted.mkString("{", ",", "}")
    case r: org.apache.spark.sql.Row => r.toSeq.map(cell).mkString("(", ",", ")")
    case other => other.toString
  }
}
