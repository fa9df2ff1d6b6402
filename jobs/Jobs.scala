package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit entrypoints — one per evaluation table (see DESIGN.md §4
  * and EXPERIMENTS.md). Usage:
  *
  *   spark-submit --class repro.jobs.RunViewBench <jar> [scale]
  *
  * Every job prints the experiment table to stdout.
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Leaf relations created from RDDs (LogicalRDD) have no statistics
      // and default to Long.MaxValue; the construction pipelines join
      // such frames repeatedly and the size-only estimator multiplies
      // child sizes, so a modest default keeps planner arithmetic cheap.
      .config("spark.sql.defaultSizeInBytes", (8L * 1024 * 1024).toString)
      .getOrCreate()

  def scaleArg(args: Array[String], default: Int): Int =
    args.headOption.map(_.toInt).getOrElse(default)
}

/** E1 / Figure 8. */
object RunViewBench {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e1-views")
    println(ViewExperiments.runE1(spark, Jobs.scaleArg(args, 1500), repeats = 2).table)
  }
}

/** E2 / §3.2 view-dependency reuse. */
object RunViewDeps {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e2-viewdeps")
    println(ViewExperiments.runE2(spark, Jobs.scaleArg(args, 300)).table)
  }
}

/** E3 / Figure 12 KG growth. */
object RunGrowth {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e3-growth")
    println(GrowthExperiment.run(spark, Jobs.scaleArg(args, 30)).table)
  }
}

/** E4 / Figure 14a NERD text annotation. */
object RunNerdText {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e4-nerd-text")
    println(NerdExperiments.runE4(spark, Jobs.scaleArg(args, 120)).table)
  }
}

/** E5 / Figure 14b NERD object resolution. */
object RunNerdObr {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e5-nerd-obr")
    println(NerdExperiments.runE5(spark, Jobs.scaleArg(args, 120)).table)
  }
}

/** E6 / §5.1 learned-similarity recall. */
object RunSimRecall {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e6-sim-recall")
    println(SimRecallExperiment.run(spark, Jobs.scaleArg(args, 120)).table)
  }
}

/** E7 / §4.2 live query latency. */
object RunLatency {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e7-latency")
    println(LiveLatencyExperiment.run(spark, Jobs.scaleArg(args, 150)).table)
  }
}

/** E8 / §2.4 incremental vs full construction. */
object RunIncremental {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e8-incremental")
    println(IncrementalExperiment.run(spark, Jobs.scaleArg(args, 60)).table)
  }
}

/** E9 / §5.3 embeddings. */
object RunEmbeddings {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-e9-embeddings")
    println(EmbeddingExperiment.run(spark, Jobs.scaleArg(args, 60)).table)
  }
}

/** End-to-end construction demo: ingest all sources at epoch 0 and 1 and
  * print KG statistics.
  */
object RunConstruction {
  def main(args: Array[String]): Unit = {
    val spark = Jobs.session("saga-construction")
    import repro.SynthKG
    import repro.construct.{Construction, Matching}
    val scale = Jobs.scaleArg(args, 40)
    val u = SynthKG.universe(scale)
    val model = Matching.defaultModel(Some(KgBuilders.encoderFor(u)))
    val boot = SynthKG.sourceConfigs.map(s => KgBuilders.payloadFor(spark, u, s, 0, None))
    val (s1, stats1) = Construction.consumeAll(Construction.KGState.empty(spark), boot, model)
    stats1.foreach(println)
    println(s"after epoch 0: facts=${s1.factCount()} entities=${s1.entityCount()}")
    val deltas = SynthKG.sourceConfigs.map(s => KgBuilders.payloadFor(spark, u, s, 1, Some((s, 0))))
    val (s2, stats2) = Construction.consumeAll(s1, deltas, model)
    stats2.foreach(println)
    println(s"after epoch 1: facts=${s2.factCount()} entities=${s2.entityCount()}")
  }
}
