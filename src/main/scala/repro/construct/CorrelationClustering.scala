package repro.construct

import org.apache.spark.unsafe.types.UTF8String
import repro.core.Schema

/** Resolution (§2.3 step 5): from calibrated pair probabilities, build a
  * linkage graph with +1 edges (high-confidence matches) and −1 edges
  * (high-confidence non-matches) and find entity clusters with the pivot
  * correlation clustering algorithm (KwikCluster; Pan et al., NIPS'15
  * family).
  *
  * A node is absorbed by a pivot only if it is +adjacent and *not*
  * −adjacent to it. Absorption therefore never leaves a +component, and
  * the pivot order restricted to one +component is the same whether the
  * other components are present or not: the algorithm is invariant under
  * partitioning by +component. One pass over the whole graph gives the
  * same assignment as one pass per component.
  *
  * That pass runs on the driver. Linking hands in only the *active*
  * subgraph — the payload's records plus the KG records they share a
  * decisive (±1) edge with (DESIGN.md §4b) — so the graph is bounded by
  * the payload and its block neighbours, never by |KG|.
  */
object CorrelationClustering {

  /** A signed linkage edge; `sign` ∈ {+1, −1}. */
  final case class Edge(a: String, b: String, sign: Int, score: Double)

  /** Pivot clustering of a signed graph. Deterministic: the permutation
    * is derived from a seed and node ids. Returns node → cluster id
    * (cluster id = pivot node id).
    */
  def clusterLocal(nodes: Seq[String], edges: Seq[Edge], seed: Long): Map[String, String] = {
    val pos = scala.collection.mutable.HashMap[String, Set[String]]().withDefaultValue(Set.empty)
    val neg = scala.collection.mutable.HashMap[String, Set[String]]().withDefaultValue(Set.empty)
    edges.foreach { e =>
      if (e.sign > 0) { pos(e.a) = pos(e.a) + e.b; pos(e.b) = pos(e.b) + e.a }
      else            { neg(e.a) = neg(e.a) + e.b; neg(e.b) = neg(e.b) + e.a }
    }
    // Deterministic random permutation: order by hash(seed, id).
    val order = nodes.sortBy(n => (scala.util.hashing.MurmurHash3.stringHash(n, seed.toInt), n))
    val assignment = scala.collection.mutable.HashMap[String, String]()
    for (pivot <- order if !assignment.contains(pivot)) {
      assignment(pivot) = pivot
      for (nb <- pos(pivot) if !assignment.contains(nb) && !neg(pivot).contains(nb))
        assignment(nb) = pivot
    }
    assignment.toMap
  }

  /** Spark's string order (unsigned UTF-8 bytes), which `min` over a
    * string column uses. `String.compareTo` compares UTF-16 units and
    * differs from it outside the BMP.
    */
  private[construct] val sparkOrder: Ordering[String] =
    (x, y) => UTF8String.fromString(x).binaryCompare(UTF8String.fromString(y))

  /** Resolve the linkage graph of one payload: `sources` are the source
    * record ids, every other edge endpoint is a KG record. Each cluster
    * keeps its min KG member, or mints a new id from its min member when
    * it has none. Returns (srcId, kgId) for every source id.
    *
    * KG records without a decisive edge are not nodes: a node with no
    * edge is always a singleton, so leaving it out moves no source
    * record to another cluster.
    */
  def resolve(sources: Seq[String], edges: Seq[Edge], seed: Long): Seq[(String, String)] = {
    val isSource = sources.toSet
    val clusterOf = clusterLocal((sources ++ edges.flatMap(e => Seq(e.a, e.b))).distinct, edges, seed)
    val kgIdOf = clusterOf.toSeq.groupMap(_._2)(_._1).view.mapValues { members =>
      val kg = members.filterNot(isSource)
      if (kg.nonEmpty) kg.min(sparkOrder) else Schema.mintKgId(members.min(sparkOrder))
    }.toMap
    sources.map(s => s -> kgIdOf(clusterOf(s)))
  }

  /** Total disagreement cost of an assignment: +edges cut plus −edges kept
    * inside a cluster. Used by tests to check the algorithm beats trivial
    * assignments.
    */
  def cost(edges: Seq[Edge], assignment: Map[String, String]): Int =
    edges.count { e =>
      val same = assignment.get(e.a) == assignment.get(e.b) && assignment.contains(e.a)
      (e.sign > 0 && !same) || (e.sign < 0 && same)
    }
}
