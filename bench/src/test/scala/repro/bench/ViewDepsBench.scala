package repro.bench

import repro.SparkSpec
import repro.exp.ViewExperiments

/** E2 / §3.2 — view-dependency reuse. Paper: 26% runtime improvement in a
  * production view dependency graph when shared views are reused.
  */
class ViewDepsBench extends SparkSpec {

  test("E2: reusing the shared entity-features view cuts total runtime substantially") {
    val scale = 300
    val res = ViewExperiments.runE2(spark, scale)
    println(res.table)
    BenchJson.write("E2", Seq("reuse_s" -> res.withReuseSec, "no_reuse_s" -> res.withoutReuseSec,
                              "improvement" -> res.improvement,
                              "recompute_count" -> res.computeCounts("entity_features"),
                              "scale" -> scale))

    // The baseline recomputes the features view once per consumer.
    assert(res.computeCounts("entity_features") == 3)
    // Shape: a double-digit percentage improvement (paper: 26%). The
    // magnitude depends on the DAG composition — the fraction of total
    // work sitting in the shared view; our 3-view DAG shares an expensive
    // PageRank-based features view, so the saving is larger than the
    // paper's production DAG.
    assert(res.improvement > 0.10, f"improvement ${res.improvement * 100}%.1f%% — paper: 26%%")
    assert(res.improvement < 0.90, "improvement implausibly large — check the harness")
  }
}
