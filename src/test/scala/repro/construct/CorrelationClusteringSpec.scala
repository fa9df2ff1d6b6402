package repro.construct

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Props, SparkSpec}
import repro.core.Schema
import CorrelationClustering._

/** Resolution via correlation clustering (§2.3 step 5). */
class CorrelationClusteringSpec extends SparkSpec {

  // ------------------------------------------------------------- local
  test("clusterLocal merges a positive clique") {
    val nodes = Seq("a", "b", "c")
    val edges = Seq(Edge("a", "b", 1, 0.9), Edge("b", "c", 1, 0.9), Edge("a", "c", 1, 0.9))
    val asg = clusterLocal(nodes, edges, 1)
    assert(asg.values.toSet.size == 1)
  }

  test("clusterLocal keeps negative pairs apart") {
    val nodes = Seq("a", "b")
    val asg = clusterLocal(nodes, Seq(Edge("a", "b", -1, 0.1)), 1)
    assert(asg("a") != asg("b"))
  }

  test("clusterLocal: negative edge to pivot blocks absorption even with a positive edge") {
    val nodes = Seq("a", "b")
    val edges = Seq(Edge("a", "b", 1, 0.9), Edge("a", "b", -1, 0.1))
    val asg = clusterLocal(nodes, edges, 7)
    assert(asg("a") != asg("b"))
  }

  test("clusterLocal assigns every node") {
    val nodes = Seq("a", "b", "c", "d", "e")
    val edges = Seq(Edge("a", "b", 1, 0.9))
    val asg = clusterLocal(nodes, edges, 3)
    assert(asg.keySet == nodes.toSet)
  }

  test("clusterLocal singleton graph") {
    assert(clusterLocal(Seq("x"), Seq.empty, 1) == Map("x" -> "x"))
  }

  test("clusterLocal is deterministic in the seed") {
    val nodes = (1 to 20).map(i => s"n$i")
    val edges = (1 until 20).map(i => Edge(s"n$i", s"n${i + 1}", if (i % 3 == 0) -1 else 1, 0.9))
    assert(clusterLocal(nodes, edges, 5) == clusterLocal(nodes, edges, 5))
  }

  test("clusterLocal cost never exceeds the trivial all-singletons cost (property)") {
    val nodeGen = Gen.choose(2, 12)
    Props.check(Prop.forAll(nodeGen, Gen.long) { (n, seed) =>
      val nodes = (0 until n).map(i => s"v$i")
      val rnd = new scala.util.Random(seed)
      val edges = for {
        i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.4
      } yield Edge(s"v$i", s"v$j", if (rnd.nextBoolean()) 1 else -1, 0.5)
      val asg = clusterLocal(nodes, edges, seed)
      val singletons = nodes.map(x => x -> x).toMap
      cost(edges, asg) <= cost(edges, singletons)
    }, minTests = 40)
  }

  test("cost counts cut positives and kept negatives") {
    val edges = Seq(Edge("a", "b", 1, 0.9), Edge("a", "c", -1, 0.1))
    val together = Map("a" -> "a", "b" -> "a", "c" -> "a")
    assert(cost(edges, together) == 1) // negative kept inside
    val apart = Map("a" -> "a", "b" -> "b", "c" -> "c")
    assert(cost(edges, apart) == 1) // positive cut
  }

  test("pivot clustering is invariant under partitioning by +component (property)") {
    val graphGen = for {
      n <- Gen.choose(1, 16)
      density <- Gen.choose(0.05, 0.5)
      seed <- Gen.long
    } yield (n, density, seed)
    Props.check(Prop.forAll(graphGen) { case (n, density, seed) =>
      val nodes = (0 until n).map(i => s"v$i")
      val rnd = new scala.util.Random(seed)
      // Some pairs carry both signs, so the −veto on +neighbours is exercised.
      val edges = for {
        i <- 0 until n; j <- (i + 1) until n
        sign <- Seq(1, -1) if rnd.nextDouble() < (if (sign > 0) density else density / 2)
      } yield Edge(s"v$i", s"v$j", sign, rnd.nextDouble())

      // +components by union-find
      val parent = scala.collection.mutable.HashMap(nodes.map(v => v -> v): _*)
      def find(v: String): String = if (parent(v) == v) v else { val r = find(parent(v)); parent(v) = r; r }
      edges.filter(_.sign > 0).foreach(e => parent(find(e.a)) = find(e.b))
      val comps = nodes.groupBy(find).values

      val perComponent = comps.map { ns =>
        val members = ns.toSet
        clusterLocal(ns, edges.filter(e => members(e.a) && members(e.b)), seed)
      }.reduce(_ ++ _)
      perComponent == clusterLocal(nodes, edges, seed)
    }, minTests = 40)
  }

  test("distributed cluster matches expected merge structure") {
    val edges = Seq(Edge("s1", "s2", 1, 0.95), Edge("s1", "k1", 1, 0.92), Edge("s2", "k1", 1, 0.91))
    val asg = clusterLocal(Seq("s1", "s2", "k1", "z"), edges, seed = 3)
    assert(asg("s1") == asg("s2") && asg("s2") == asg("k1"))
    assert(asg("z") != asg("s1"))
    assert(asg.keySet == Set("s1", "s2", "k1", "z"))
  }

  test("distributed cluster honours negative edges between pivot and neighbour") {
    // the pair is simultaneously +linked and −linked; the − edge vetoes
    // absorption regardless of which endpoint pivots
    val edges = Seq(Edge("a", "b", 1, 0.9), Edge("a", "b", -1, 0.05))
    val asg = clusterLocal(Seq("a", "b"), edges, seed = 11)
    assert(asg("a") != asg("b"))
  }

  test("distributed triangle with one negative edge pays the minimum disagreement") {
    val edgeObjs = Seq(Edge("a", "b", 1, 0.9), Edge("b", "c", 1, 0.9), Edge("a", "c", -1, 0.05))
    val asg = clusterLocal(Seq("a", "b", "c"), edgeObjs, seed = 11)
    // any optimal assignment of this triangle has cost exactly 1
    assert(cost(edgeObjs, asg) == 1, asg.toString)
  }

  test("distributed cluster covers all nodes even isolated ones") {
    val asg = clusterLocal(Seq("p", "q", "r"), Seq(Edge("p", "q", 1, 0.9)), seed = 1).keySet
    assert(asg == Set("p", "q", "r"))
  }

  // ------------------------------------------------------------ resolve
  import spark.implicits._

  /** Reference: the DataFrame resolution Linking used before `resolve`.
    * Its nodes also held KG records with no decisive edge (`isolatedKg`);
    * the min ids come from Spark's `min`.
    */
  private def resolveViaFrames(sources: Seq[String], edgeKg: Seq[String], isolatedKg: Seq[String],
                               edges: Seq[Edge], seed: Long): Map[String, String] = {
    val allDf = (sources.map(_ -> false) ++ (edgeKg ++ isolatedKg).map(_ -> true)).toDF("id", "isKg")
    val clusters = clusterLocal(sources ++ edgeKg ++ isolatedKg, edges, seed).toSeq.toDF("id", "cluster")
    val info = clusters.join(allDf, Seq("id"))
    val clusterKg = info.filter(col("isKg"))
      .groupBy("cluster").agg(min("id").as("kgOfCluster"))
    val clusterNew = info.groupBy("cluster").agg(min("id").as("minId"))
    val mint = udf((s: String) => Schema.mintKgId(s))
    val resolved = clusterNew.join(clusterKg, Seq("cluster"), "left")
      .select(col("cluster"), coalesce(col("kgOfCluster"), mint(col("minId"))).as("kgId"))
    info.filter(!col("isKg")).join(resolved, Seq("cluster"))
      .select(col("id"), col("kgId")).as[(String, String)].collect().toMap
  }

  test("resolve equals the DataFrame resolution, isolated KG records included (property)") {
    // Id suffixes mix a BMP character above the surrogate range with one
    // outside the BMP: UTF-16 and UTF-8 order them differently.
    val suffix = Gen.listOfN(2, Gen.oneOf("a", "\uFF21", "\uD83D\uDE00")).map(_.mkString)
    val graphGen = for {
      src <- Gen.choose(1, 8).flatMap(Gen.listOfN(_, suffix))
      kg <- Gen.choose(0, 6).flatMap(Gen.listOfN(_, suffix))
      isolated <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, suffix))
      density <- Gen.choose(0.1, 0.7)
      seed <- Gen.long
    } yield (src.distinct.map("s:" + _), kg.distinct.map("kg:" + _),
             isolated.distinct.map("kg:x" + _), density, seed)
    Props.check(Prop.forAllNoShrink(graphGen) { case (sources, edgeKg, isolatedKg, density, seed) =>
      val nodes = sources ++ edgeKg
      val rnd = new scala.util.Random(seed)
      val edges = for {
        i <- nodes.indices; j <- (i + 1) until nodes.size
        sign <- Seq(1, -1) if rnd.nextDouble() < (if (sign > 0) density else density / 3)
      } yield Edge(nodes(i), nodes(j), sign, rnd.nextDouble())
      val got = resolve(sources, edges, seed)
      got.map(_._1) == sources &&
        got.toMap == resolveViaFrames(sources, edgeKg, isolatedKg, edges, seed)
    }, minTests = 40)
  }
}
