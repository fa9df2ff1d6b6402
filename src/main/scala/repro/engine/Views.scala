package repro.engine

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Dataflow
import scala.collection.mutable

/** KG views and their lifecycle (§3.2): a view is *any* transformation of
  * the graph — subgraphs, schematized relational views, aggregates,
  * iterative algorithms (PageRank), or alternative representations
  * (embeddings). View definitions are registered in a central catalog
  * with their dependencies and executed by the View Manager in
  * registration order, which is a dependency order, reusing shared
  * upstream views (the multi-query optimization behind the paper's 26%
  * speedup).
  */
object Views {

  /** A registered view definition.
    *
    * @param name        catalog name
    * @param deps        names of views this view consumes
    * @param create      full materialization: (spark, KG triples, dep
    *                    outputs) → view relation
    * @param update      incremental maintenance given the previously
    *                    materialized view and the changed entity ids;
    *                    None → recompute on update
    */
  final case class ViewDef(
      name: String,
      deps: Seq[String],
      create: (SparkSession, DataFrame, Map[String, DataFrame]) => DataFrame,
      update: Option[(SparkSession, DataFrame, DataFrame, Map[String, DataFrame], DataFrame) => DataFrame] = None,
  )

  /** The central view catalog: registration with dependency validation.
    * A view registers only after its dependencies and a view with
    * consumers cannot be dropped, so no cycle can form and registration
    * order ([[all]]) is always a dependency order.
    */
  final class Catalog {
    private val defs = mutable.LinkedHashMap[String, ViewDef]()

    def register(v: ViewDef): Unit = {
      require(!defs.contains(v.name), s"view ${v.name} already registered")
      val missing = v.deps.filterNot(defs.contains)
      require(missing.isEmpty, s"view ${v.name} depends on unregistered views: $missing")
      defs(v.name) = v
    }

    def drop(name: String): Unit = {
      require(defs.contains(name), s"view $name is not registered")
      val dependents = defs.values.filter(_.deps.contains(name)).map(_.name)
      require(dependents.isEmpty, s"cannot drop $name; consumed by $dependents")
      defs.remove(name)
    }

    def get(name: String): ViewDef = defs(name)

    /** Every view in registration order: dependencies before consumers. */
    def all: Seq[ViewDef] = defs.values.toSeq
  }

  /** Result of a materialization run: view outputs and per-view wall-clock
    * (seconds), including how many times each view's create ran.
    */
  final case class RunReport(outputs: Map[String, DataFrame],
                             seconds: Map[String, Double],
                             computeCounts: Map[String, Int]) {
    def totalSeconds: Double = seconds.values.sum
  }

  /** The View Manager: executes the dependency graph against the KG.
    *
    * Every output is pinned: views are served, not lazy, so a consumer
    * reads a view's rows instead of re-running its plan.
    * With `reuseShared = true` (production behaviour) every view is
    * materialized once and shared by all consumers. With `false`, each
    * consumer recomputes its upstream views — the no-multi-query-
    * optimization baseline that the paper's 26% figure is measured
    * against (E2).
    */
  final class Manager(val catalog: Catalog) {

    private def timed[A](f: => A): (A, Double) = {
      val t0 = System.nanoTime()
      val a = f
      (a, (System.nanoTime() - t0) / 1e9)
    }

    def materializeAll(spark: SparkSession, kg: DataFrame,
                       reuseShared: Boolean = true): RunReport = {
      val outputs = mutable.Map[String, DataFrame]()
      val seconds = mutable.Map[String, Double]().withDefaultValue(0.0)
      val counts = mutable.Map[String, Int]().withDefaultValue(0)

      def materialize(v: ViewDef): DataFrame = {
        val depOut = v.deps.map { d =>
          val dv = catalog.get(d)
          if (reuseShared) d -> outputs.getOrElseUpdate(d, materialize(dv))
          else d -> materialize(dv) // recompute per consumer
        }.toMap
        val (df, secs) = timed(Dataflow.pin(v.create(spark, kg, depOut)))
        seconds(v.name) += secs
        counts(v.name) += 1
        df
      }

      catalog.all.foreach { v =>
        if (reuseShared) outputs.getOrElseUpdate(v.name, materialize(v))
        else outputs(v.name) = materialize(v)
      }
      RunReport(outputs.toMap, seconds.toMap, counts.toMap)
    }

    /** Incremental maintenance: apply each view's update procedure given
      * the changed entity ids (views without one are recomputed — their
      * choice of freshness SLA).
      */
    def updateAll(spark: SparkSession, kg: DataFrame, previous: Map[String, DataFrame],
                  changedIds: DataFrame): Map[String, DataFrame] = {
      val outputs = mutable.Map[String, DataFrame]()
      catalog.all.foreach { v =>
        val depOut = v.deps.map(d => d -> outputs(d)).toMap
        val out = (v.update, previous.get(v.name)) match {
          case (Some(u), Some(prev)) => u(spark, prev, kg, depOut, changedIds)
          case _ => v.create(spark, kg, depOut)
        }
        outputs(v.name) = Dataflow.pin(out)
      }
      outputs.toMap
    }
  }
}
