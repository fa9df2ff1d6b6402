package repro.bench

import repro.SparkSpec
import repro.exp.LiveLatencyExperiment

/** E7 / §4.2, §6.1 — live KGQ latency under concurrency. Paper: p95 in
  * the (low) tens of milliseconds on production workloads.
  */
class LiveLatencyBench extends SparkSpec {

  test("E7: p95 latency of the live engine stays in the tens of milliseconds") {
    val scale = 200
    val res = LiveLatencyExperiment.run(spark, scale, nQueries = 4000, threads = 8)
    println(res.table)
    BenchJson.write("E7", Seq("p50_ms" -> res.p50Ms, "p95_ms" -> res.p95Ms, "p99_ms" -> res.p99Ms,
                              "qps" -> res.qps, "queries" -> res.queries, "scale" -> scale,
                              "threads" -> res.threads))

    assert(res.p95Ms < 50.0, f"p95 ${res.p95Ms}%.2f ms — paper: <~20ms tens-of-ms SLA")
    assert(res.p50Ms <= res.p95Ms && res.p95Ms <= res.p99Ms)
    assert(res.qps > 100.0, f"throughput ${res.qps}%.0f qps")
  }
}
