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

  final class InvertedIndex {
    private val maps = Array.fill(Shards)(new ConcurrentHashMap[String, Set[Posting]]())
    private def shard(tok: String): ConcurrentHashMap[String, Set[Posting]] =
      maps(math.floorMod(tok.hashCode, Shards))

    def postings(token: String): Set[Posting] =
      shard(StringSim.normalize(token)).getOrDefault(StringSim.normalize(token), Set.empty)

    /** Ids whose `field` contains every token of `text`. */
    def lookup(text: String, field: Option[String] = None): Set[String] = {
      val toks = StringSim.tokens(text)
      if (toks.isEmpty) return Set.empty
      toks.map { t =>
        val ps = postings(t)
        (field match { case Some(f) => ps.filter(_.field == f); case None => ps }).map(_.id)
      }.reduce(_ intersect _)
    }

    /** Move `id`'s postings from its indexed record `from` to `to`: add the
      * (token, field) pairs only `to` has, then remove those only `from` has
      * and drop emptied tokens. Shared pairs are never touched, so lookups
      * cannot miss them. The caller serializes writes per id.
      */
    private[live] def reindex(id: String, from: Record, to: Record): Unit = {
      val (before, after) = (pairs(from), pairs(to))
      (after -- before).foreach { case (t, f) => shard(t).merge(t, Set(Posting(id, f)), _ ++ _) }
      (before -- after).foreach { case (t, f) =>
        shard(t).computeIfPresent(t, (_, ps) => Option(ps - Posting(id, f)).filter(_.nonEmpty).orNull)
      }
    }

    private def pairs(rec: Record): Set[(String, String)] =
      rec.iterator.flatMap { case (field, vals) => vals.flatMap(StringSim.tokens).map(_ -> field) }.toSet

    def tokenCount: Int = maps.map(_.size()).sum
  }
}
