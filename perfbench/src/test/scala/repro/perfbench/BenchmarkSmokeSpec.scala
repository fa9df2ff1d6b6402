package repro.perfbench

import java.io.File
import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import org.scalatest.funsuite.AnyFunSuite

/** Each workload, at a tiny scale, emits every metric with its unit, and
  * the catalog matches `BENCHMARK.json`.
  */
class BenchmarkSmokeSpec extends AnyFunSuite {
  private implicit val formats: Formats = DefaultFormats
  private lazy val spark = {
    val s = repro.jobs.Jobs.session("perfbench-smoke")
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def entries(j: JValue, key: String): Seq[(String, String)] =
    (j \ key).extract[Seq[Map[String, Any]]].map(m => m("name").toString -> m("unit").toString)

  test("BENCHMARK.json lists the catalog's workloads and metrics") {
    val j = parse(new File("../BENCHMARK.json"))
    assert((j \ "workloads").extract[Seq[Map[String, String]]].map(_("name")).toSet == Main.workloads.keySet)
    assert(entries(j, "end_to_end") == Catalog.endToEnd)
    assert(entries(j, "per_layer") == Catalog.perLayer)
  }

  private def smoke(workload: String, scale: Int): Unit = {
    val wl = Main.workloads(workload)
    for (trace <- Seq(false, true)) {
      val args = Args(workload, seed = 5, seconds = 2, trace = trace, scale = Some(scale))
      val out = Main.runWorkload(spark, wl, args)
      assert(out.e2e.map { case (n, m) => n -> m.unit } == Catalog.endToEnd.toMap)
      assert(out.e2e.values.forall(_.value > 0), out.e2e)
      assert(out.layer.keySet.subsetOf(Catalog.perLayerUnits.keySet))
      assert(out.layer.forall { case (n, m) => Catalog.perLayerUnits(n) == m.unit })
      val result = parse(Main.report(spark, wl, args, out).last)
      val printed = (result \ "metrics").extract[Map[String, Map[String, Any]]]
      val expected = if (trace) Catalog.perLayer else Catalog.endToEnd
      assert(printed.map { case (n, m) => n -> m("unit").toString } == expected.toMap)
      assert((result \ "attempted").extract[Long] >= 1)
      if (trace) assert(out.layer.contains("trace.unattributed_job_frac"))
    }
  }

  test("construct emits every metric") { smoke("construct", scale = 4) }

  test("serve emits every metric") { smoke("serve", scale = 20) }
}
