package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** A metric value with its unit, as printed in the result line. */
final case class Metric(value: Double, unit: String)

/** Latency samples of one kind; percentiles by nearest rank. */
final class Samples {
  private val buf = mutable.ArrayBuffer.empty[Double]
  def add(v: Double): Unit = synchronized { buf += v }
  def size: Int = synchronized(buf.size)
  def values: Array[Double] = synchronized(buf.toArray)

  /** Nearest-rank percentile, 0 when there are no samples. */
  def pct(p: Double): Double = {
    val s = values.sorted
    if (s.isEmpty) 0.0 else s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }
  def median: Double = pct(0.5)
  def mean: Double = { val s = values; if (s.isEmpty) 0.0 else s.sum / s.length }
}

object Samples {
  def pct(xs: Seq[Double], p: Double): Double = {
    val s = new Samples; xs.foreach(s.add); s.pct(p)
  }
  def median(xs: Seq[Double]): Double = pct(xs, 0.5)
}

/** Spark job attribution for the traced run.
  *
  * Every job is tagged with two things:
  *   - the benchmark phase active when it was submitted (a local property,
  *     so it survives AQE's stage submission from pool threads), and
  *   - its program layer: the innermost `repro.*` frame of the call site,
  *     skipping `repro.core.Dataflow` and the benchmark itself.
  *
  * The call site comes from `SparkListenerSQLExecutionStart.details`,
  * looked up through the job's `spark.sql.execution.id`; stage `details`
  * of AQE jobs only show the pool thread. Jobs outside SQL executions (RDD
  * actions such as `Dataflow.pin`'s count) use their result stage's call
  * site. A job whose call site holds no program frame is attributed to
  * the layer the benchmark declared when it forced that layer's output
  * itself (for example counting a lazily built view), else to nothing.
  */
final class JobAttribution extends SparkListener {
  import JobAttribution._

  final class Job(val id: Int, val phase: String, val step: Int, val layer: String,
                  val start: Long) {
    @volatile var end: Long = start
    @volatile var stages: Int = 0
    @volatile var taskNs: Long = 0L
    @volatile var shuffleWriteBytes: Long = 0L
    @volatile var recordsRead: Long = 0L
  }

  private val sqlDetails = new ConcurrentHashMap[Long, String]()
  private val jobs = new ConcurrentHashMap[Int, Job]()
  private val stageJob = new ConcurrentHashMap[Int, Job]()
  @volatile private var handlerNs: Long = 0L

  private def timedHandler(f: => Unit): Unit = {
    val t0 = System.nanoTime()
    try f finally handlerNs += System.nanoTime() - t0
  }

  override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
    case e: SparkListenerSQLExecutionStart => timedHandler(sqlDetails.put(e.executionId, e.details))
    case _ => ()
  }

  override def onJobStart(js: SparkListenerJobStart): Unit = timedHandler {
    val props = Option(js.properties)
    def prop(k: String): Option[String] = props.flatMap(p => Option(p.getProperty(k)))
    val site = prop("spark.sql.execution.id").flatMap(id => Option(sqlDetails.get(id.toLong)))
      .orElse(js.stageInfos.sortBy(_.stageId).lastOption.map(_.details)).getOrElse("")
    val layer = layerOf(site).orElse(prop(LayerKey)).getOrElse(Unattributed)
    val job = new Job(js.jobId, prop(PhaseKey).getOrElse("none"),
      prop(StepKey).map(_.toInt).getOrElse(-1), layer, js.time)
    jobs.put(js.jobId, job)
    js.stageIds.foreach(s => stageJob.putIfAbsent(s, job))
  }

  override def onJobEnd(je: SparkListenerJobEnd): Unit = timedHandler {
    Option(jobs.get(je.jobId)).foreach(_.end = je.time)
  }

  override def onStageCompleted(sc: SparkListenerStageCompleted): Unit = timedHandler {
    Option(stageJob.get(sc.stageInfo.stageId)).foreach(j => j.stages += 1)
  }

  override def onTaskEnd(te: SparkListenerTaskEnd): Unit = timedHandler {
    for (j <- Option(stageJob.get(te.stageId)); m <- Option(te.taskMetrics)) {
      j.taskNs += m.executorRunTime * 1000000L
      j.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      j.recordsRead += m.inputMetrics.recordsRead + m.shuffleReadMetrics.recordsRead
    }
  }

  /** Wait until the listener has seen every posted event. */
  def settle(sc: SparkContext): Unit = org.apache.spark.PerfbenchBus.waitUntilEmpty(sc)

  def allJobs: Seq[Job] = jobs.values.asScala.toSeq.sortBy(_.id)
  def handlerSeconds: Double = handlerNs / 1e9
}

object JobAttribution {
  val PhaseKey = "perfbench.phase"
  val StepKey = "perfbench.step"
  val LayerKey = "perfbench.layer"
  val Unattributed = "unattributed"

  private val Frame = """^\s*(?:at\s+)?repro\.([A-Za-z0-9_.$]+)\(""".r.unanchored

  /** `construct.Fusion` for a frame `repro.construct.Fusion$.fuse(...)`:
    * the package under `repro` plus the top-level object or class.
    */
  def layerOfFrame(frame: String): Option[String] = frame match {
    case Frame(qualified) =>
      val parts = qualified.split('.').toSeq.dropRight(1) // drop the method
      val (pkgs, cls) = parts.span(p => p.nonEmpty && p.head.isLower)
      cls.headOption.map(_.takeWhile(_ != '$')).filter(_.nonEmpty)
        .map(c => (pkgs :+ c).mkString("."))
        .filterNot(l => l == "core.Dataflow" || l.startsWith("perfbench."))
    case _ => None
  }

  /** Innermost program layer of a long-form call site. */
  def layerOf(callSite: String): Option[String] =
    callSite.split('\n').iterator.map(layerOfFrame).collectFirst { case Some(l) => l }

  /** Run `f` with the phase (and optionally step and declared layer)
    * attached to every Spark job it submits.
    */
  def within[A](sc: SparkContext, phase: String, step: Int = -1,
                layer: Option[String] = None)(f: => A): A = {
    val saved = Seq(PhaseKey, StepKey, LayerKey).map(k => k -> sc.getLocalProperty(k))
    sc.setLocalProperty(PhaseKey, phase)
    sc.setLocalProperty(StepKey, step.toString)
    sc.setLocalProperty(LayerKey, layer.orNull)
    try f finally saved.foreach { case (k, v) => sc.setLocalProperty(k, v) }
  }

  /** Total length of the union of job intervals, in seconds. */
  def coveredSeconds(js: Seq[JobAttribution#Job]): Double = {
    var total = 0L; var curS = Long.MinValue; var curE = Long.MinValue
    js.map(j => (j.start, j.end)).sorted.foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total / 1e3
  }
}
