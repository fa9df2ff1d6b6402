package repro.engine

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.{Props, SparkSpec, SynthKG}
import repro.exp.{KgBuilders, ViewExperiments}

/** KG views: catalog, dependency DAG, reuse, incremental update (§3.2). */
class ViewsSpec extends SparkSpec {
  import Views._

  private def countingView(name: String, deps: Seq[String] = Seq.empty,
                           counter: java.util.concurrent.atomic.AtomicInteger) =
    ViewDef(name, deps, (spark, kg, depOut) => {
      counter.incrementAndGet()
      kg.select(col("subject").as("id")).distinct()
    })

  test("catalog rejects duplicate registrations") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("v", counter = n))
    intercept[IllegalArgumentException] { c.register(countingView("v", counter = n)) }
  }

  test("catalog rejects unknown dependencies") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    intercept[IllegalArgumentException] {
      c.register(countingView("v", deps = Seq("ghost"), counter = n))
    }
  }

  test("catalog refuses to drop a view with consumers") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("base", counter = n))
    c.register(countingView("child", deps = Seq("base"), counter = n))
    intercept[IllegalArgumentException] { c.drop("base") }
    c.drop("child")
    c.drop("base") // now fine
  }

  test("catalog order puts dependencies before consumers") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("a", counter = n))
    c.register(countingView("b", deps = Seq("a"), counter = n))
    c.register(countingView("c", deps = Seq("b", "a"), counter = n))
    val order = c.all.map(_.name)
    assert(order.indexOf("a") < order.indexOf("b"))
    assert(order.indexOf("b") < order.indexOf("c"))
  }

  test("after any accepted register/drop sequence, all follows dependencies and reuse builds each view once (property)") {
    import spark.implicits._
    val names = Seq("a", "b", "c", "d", "e")
    // Left(name) drops a view, Right((name, deps)) registers one; the
    // catalog rejects some of each, and the rest must keep its order valid.
    val op: Gen[Either[String, (String, Seq[String])]] = Gen.oneOf(
      Gen.oneOf(names).map(Left(_)),
      Gen.zip(Gen.oneOf(names), Gen.someOf(names)).map { case (v, deps) => Right((v, deps.toSeq)) })
    val tiny = repro.core.Dataflow.pin(Seq("kg:1", "kg:2").toDF("subject"))
    Props.check(Prop.forAllNoShrink(Gen.choose(1, 12).flatMap(Gen.listOfN(_, op))) { ops =>
      val c = new Catalog
      val built = names.map(_ -> new java.util.concurrent.atomic.AtomicInteger()).toMap
      ops.foreach { o =>
        try o match {
          case Left(v) => c.drop(v)
          case Right((v, deps)) => c.register(countingView(v, deps, built(v)))
        } catch { case _: IllegalArgumentException => () }
      }
      val order = c.all.map(_.name)
      val ordered = c.all.forall(v => v.deps.forall(d => order.indexOf(d) >= 0 && order.indexOf(d) < order.indexOf(v.name)))
      val rep = new Manager(c).materializeAll(spark, tiny, reuseShared = true)
      (ordered && rep.outputs.keySet == order.toSet && order.forall(built(_).get == 1)) :|
        s"order $order, builds ${built.map { case (k, n) => k -> n.get }}"
    }, minTests = 25)
  }

  private lazy val kg = repro.core.Dataflow.pin(
    KgBuilders.directKG(spark, SynthKG.universe(4)))

  test("materializeAll with reuse computes each shared view once") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("features", counter = n))
    c.register(countingView("ranked", deps = Seq("features"), counter = n))
    c.register(countingView("neighborhood", deps = Seq("features"), counter = n))
    val mgr = new Manager(c)
    val rep = mgr.materializeAll(spark, kg, reuseShared = true)
    assert(rep.computeCounts("features") == 1)
    assert(rep.outputs.keySet == Set("features", "ranked", "neighborhood"))
  }

  test("a shared view is evaluated once, however many consumers read it") {
    // every row the dependency's plan produces passes through this UDF,
    // so the accumulator counts evaluations of the plan, not calls to create
    val evaluated = spark.sparkContext.longAccumulator("dep rows")
    val seen = udf { (_: String) => evaluated.add(1); true }.asNondeterministic() // not pushed below distinct
    val c = new Catalog
    c.register(ViewDef("dep", Seq.empty,
      (_, k, _) => k.select(col("subject").as("id")).distinct().filter(seen(col("id")))))
    c.register(ViewDef("left", Seq("dep"),
      (_, _, d) => d("dep").withColumn("side", lit("left"))))
    c.register(ViewDef("right", Seq("dep"),
      (_, _, d) => d("dep").withColumn("side", lit("right"))))
    val rows = kg.select("subject").distinct().count()
    val rep = new Manager(c).materializeAll(spark, kg, reuseShared = true)
    assert(evaluated.value == rows)
    assert(rep.outputs("left").count() == rows && rep.outputs("right").count() == rows)
    assert(evaluated.value == rows) // reading a served view does not re-run its plan
  }

  test("materializeAll without reuse recomputes per consumer (E2 baseline)") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("features", counter = n))
    c.register(countingView("ranked", deps = Seq("features"), counter = n))
    c.register(countingView("neighborhood", deps = Seq("features"), counter = n))
    val rep = new Manager(c).materializeAll(spark, kg, reuseShared = false)
    // once per consumer + once as a root view
    assert(rep.computeCounts("features") == 3)
  }

  test("the Figure-7 production views materialize on a real KG") {
    val c = new Catalog
    ViewExperiments.registerFig7Views(c)
    val rep = new Manager(c).materializeAll(spark, kg)
    assert(rep.outputs("entity_features").count() > 0)
    assert(rep.outputs("ranked_entity_index").count() > 0)
    assert(rep.outputs("entity_neighborhood").count() > 0)
    // the ranked index carries capped, importance-ranked postings
    val row = rep.outputs("ranked_entity_index")
      .orderBy(desc("df")).select("topPostings").head()
    val postings = row.getSeq[org.apache.spark.sql.Row](0)
    assert(postings.nonEmpty && postings.size <= 20)
    val imps = postings.map(_.getDouble(0))
    assert(imps.zip(imps.tail).forall { case (a, b) => a >= b })
  }

  test("updateAll uses the incremental procedure when registered") {
    val c = new Catalog
    val incCalls = new java.util.concurrent.atomic.AtomicInteger()
    c.register(ViewDef("v", Seq.empty,
      create = (s, k, d) => k.select(col("subject").as("id")).distinct(),
      update = Some((s, prev, k, d, changed) => { incCalls.incrementAndGet(); prev })))
    val mgr = new Manager(c)
    val first = mgr.materializeAll(spark, kg)
    import spark.implicits._
    val changed = Seq("kg:x").toDF("id")
    val out = mgr.updateAll(spark, kg, first.outputs, changed)
    assert(incCalls.get() == 1)
    assert(out.contains("v"))
  }

  test("updateAll recomputes views without an incremental procedure") {
    val c = new Catalog
    val n = new java.util.concurrent.atomic.AtomicInteger()
    c.register(countingView("v", counter = n))
    val mgr = new Manager(c)
    val first = mgr.materializeAll(spark, kg)
    import spark.implicits._
    mgr.updateAll(spark, kg, first.outputs, Seq("kg:x").toDF("id"))
    assert(n.get() == 2)
  }
}
