package repro.bench

import repro.SparkSpec
import repro.exp.IncrementalExperiment

/** E8 / §2.4 — the scaling claims of delta-based construction: consuming
  * diffs beats full rebuilds, and volatile partition overwrite beats
  * join-based volatile fusion.
  */
class IncrementalBench extends SparkSpec {

  test("E8: incremental construction and volatile overwrite beat their baselines") {
    val scale = 100
    // The speedup is the median ratio over the run's leg pairs.
    val res = IncrementalExperiment.run(spark, scale)
    println(res.table)
    BenchJson.write("E8", Seq("full_s" -> res.fullSec, "incremental_s" -> res.incrementalSec,
                              "full_legs_s" -> res.fullLegs,
                              "incremental_legs_s" -> res.incrementalLegs,
                              "construction_speedup" -> res.constructionSpeedup,
                              "volatile_speedup" -> res.volatileSpeedup,
                              "delta_frac" -> res.deltaFrac, "scale" -> scale))

    // the delta really is small relative to the full payload
    assert(res.deltaFrac < 0.5, f"delta fraction ${res.deltaFrac * 100}%.0f%%")
    // consuming diffs is faster than rebuilding from scratch
    assert(res.constructionSpeedup > 1.2,
      f"incremental speedup ${res.constructionSpeedup}%.2fx")
    // the optimized volatile path avoids the fact-key join entirely
    assert(res.volatileSpeedup > 1.2,
      f"volatile overwrite speedup ${res.volatileSpeedup}%.2fx")
  }
}
