package repro.live

import java.util.concurrent.ConcurrentHashMap
import scala.jdk.CollectionConverters._
import repro.ml.StringSim

/** The live KG serving stores (§4.1): a sharded key-value store holding
  * entity records and a sharded inverted index over their textual fields.
  * Both are optimized for low-latency retrieval under high concurrency;
  * sharding gives tight control over per-shard load (scale-out stands in
  * for the paper's replicated index fleet). Only [[LiveGraph]] writes them.
  */
object Stores {

  /** An entity record in the live KG: predicate → values. Values that are
    * entity identifiers (kg:/live: prefixes) encode graph edges.
    */
  type Record = Map[String, Seq[String]]

  private val Shards = 16

  final class KVStore {
    private val maps = Array.fill(Shards)(new ConcurrentHashMap[String, Record]())
    private def shard(id: String): ConcurrentHashMap[String, Record] =
      maps(math.floorMod(id.hashCode, Shards))

    def get(id: String): Option[Record] = Option(shard(id).get(id))
    def size: Int = maps.map(_.size()).sum
    def ids: Seq[String] = maps.toSeq.flatMap(_.keySet().asScala)

    /** Set `id`'s record to `f(current)` (`None` deletes) in the shard's per-key `compute`. */
    private[live] def write(id: String)(f: Option[Record] => Option[Record]): Unit =
      shard(id).compute(id, (_, old) => f(Option(old)).orNull)
  }

  final case class Posting(id: String, field: String)

  /** Token → field → ids. A field-restricted lookup is two map reads, and
    * the ids under (token, field) are exactly the records whose `field`
    * holds a value with that token. For a field whose values are entity
    * ids, that is the field's reverse edges, keyed by the ids' tokens.
    */
  final class InvertedIndex {
    private type ByField = Map[String, Set[String]]
    private val maps = Array.fill(Shards)(new ConcurrentHashMap[String, ByField]())
    private def shard(tok: String): ConcurrentHashMap[String, ByField] =
      maps(math.floorMod(tok.hashCode, Shards))
    private def byField(tok: String): ByField = shard(tok).getOrDefault(tok, Map.empty)

    def postings(token: String): Set[Posting] = {
      val t = StringSim.normalize(token)
      byField(t).iterator.flatMap { case (f, ids) => ids.iterator.map(Posting(_, f)) }.toSet
    }

    /** Ids whose `field` contains every token of `text`; empty when `text`
      * has no tokens. The token sets are intersected smallest first.
      */
    def lookup(text: String, field: Option[String] = None): Set[String] = {
      StringSim.tokens(text).distinct.map { t =>
        field match {
          case Some(f) => byField(t).getOrElse(f, Set.empty[String])
          case None    => byField(t).valuesIterator.flatten.toSet
        }
      }.sortBy(_.size).reduceOption((acc, s) => acc.filter(s)).getOrElse(Set.empty)
    }

    /** Move `id`'s postings from its indexed record `from` to `to`: add the
      * (token, field) pairs only `to` has, then remove those only `from` has,
      * dropping emptied fields and tokens. Shared pairs are never touched, so
      * lookups cannot miss them. The caller serializes writes per id.
      */
    private[live] def reindex(id: String, from: Record, to: Record): Unit = {
      val (before, after) = (pairs(from), pairs(to))
      (after -- before).foreach { case (t, f) =>
        shard(t).merge(t, Map(f -> Set(id)), (m, _) => m.updated(f, m.getOrElse(f, Set.empty) + id))
      }
      (before -- after).foreach { case (t, f) =>
        shard(t).computeIfPresent(t, (_, m) => {
          val ids = m.getOrElse(f, Set.empty) - id
          Option(if (ids.isEmpty) m - f else m.updated(f, ids)).filter(_.nonEmpty).orNull
        })
      }
    }

    private def pairs(rec: Record): Set[(String, String)] =
      rec.iterator.flatMap { case (field, vals) => vals.flatMap(StringSim.tokens).map(_ -> field) }.toSet

    def tokenCount: Int = maps.map(_.size()).sum
  }
}
