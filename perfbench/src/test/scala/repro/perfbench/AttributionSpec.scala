package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class AttributionSpec extends AnyFunSuite {
  import JobAttribution.layerOf

  test("the innermost program frame names the layer") {
    val site = Seq(
      "org.apache.spark.sql.Dataset.count(Dataset.scala:1499)",
      "repro.core.Dataflow$.pin(Dataflow.scala:25)",
      "repro.construct.CorrelationClustering$.$anonfun$connectedComponents$1(CorrelationClustering.scala:40)",
      "repro.construct.Construction$.consume(Construction.scala:110)",
      "repro.perfbench.ConstructWorkload$.run(ConstructWorkload.scala:80)",
    ).mkString("\n")
    assert(layerOf(site).contains("construct.CorrelationClustering"))
  }

  test("nested classes and root-package objects map to their top-level object") {
    assert(layerOf("repro.engine.AnalyticsStore$Store.pivot(AnalyticsStore.scala:120)").contains("engine.AnalyticsStore"))
    assert(layerOf("repro.live.KGQ$Engine.execute(KGQ.scala:170)").contains("live.KGQ"))
    assert(layerOf("repro.SynthKG$.recordsToRows(SynthKG.scala:566)").contains("SynthKG"))
  }

  test("Dataflow.pin and the benchmark itself are never a layer") {
    val site = "repro.core.Dataflow$.pin(Dataflow.scala:25)\n" +
      "repro.perfbench.ConstructWorkload$.ingest(ConstructWorkload.scala:60)\njava.lang.Thread.run(Thread.java:840)"
    assert(layerOf(site).isEmpty)
  }

  test("covered seconds merge overlapping job intervals") {
    val t = new JobAttribution
    val a = new t.Job(1, "p", 0, "l", 0L); a.end = 1000L
    val b = new t.Job(2, "p", 0, "l", 500L); b.end = 1500L
    val c = new t.Job(3, "p", 0, "l", 3000L); c.end = 3250L
    assert(JobAttribution.coveredSeconds(Seq(a, b, c)) == 1.75)
  }
}
