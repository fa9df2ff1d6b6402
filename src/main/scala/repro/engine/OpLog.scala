package repro.engine

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._

/** KG storage coordination (§3.1): a durable, ordered operation log with
  * log sequence numbers (LSNs) as the distributed synchronization
  * primitive, plus orchestration agents that replay ingest operations on
  * each specialized store and track replay progress in a metadata store.
  *
  * Substitution note (DESIGN.md §3): the paper's log is a distributed
  * shared log over an object store; ours is an in-process ordered log
  * with the same contract — ordered, replayable from any LSN, append-only
  * — so all consistency/freshness semantics are exercised.
  */
object OpLog {

  /** One ingest operation. `payloadRef` points at staged data (in the
    * paper: an object-store path; here: any handle the agents understand).
    */
  final case class Op(lsn: Long, kind: String, payloadRef: String)

  /** The ordered, append-only log. */
  final class Log {
    private val seq = new AtomicLong(0L)
    private val entries = new java.util.concurrent.ConcurrentSkipListMap[Long, Op]()

    /** Append an operation; returns its LSN (strictly increasing). */
    def append(kind: String, payloadRef: String): Long = {
      val lsn = seq.incrementAndGet()
      entries.put(lsn, Op(lsn, kind, payloadRef))
      lsn
    }

    /** All operations with LSN strictly greater than `afterLsn`, ordered. */
    def readFrom(afterLsn: Long): Seq[Op] =
      entries.tailMap(afterLsn, false).values.asScala.toSeq

    def lastLsn: Long = seq.get()
    def size: Int = entries.size()
  }

  /** Replay-progress tracking (§3.1): the metadata store records, per
    * store, the LSN of the latest operation successfully replayed. A
    * consumer can use it to determine the freshness of a store — i.e.
    * that it serves at least some minimum version of the KG.
    */
  final class MetadataStore {
    private val progress = new ConcurrentHashMap[String, Long]()

    def replayedUpTo(store: String, lsn: Long): Unit =
      progress.merge(store, lsn, (a, b) => math.max(a, b))

    def lsnOf(store: String): Long = progress.getOrDefault(store, 0L)

    /** The KG version every one of `stores` is guaranteed to serve. */
    def freshness(stores: Seq[String]): Long =
      if (stores.isEmpty) 0L else stores.map(lsnOf).min
  }

  /** A store-specific orchestration agent: encapsulates all store logic;
    * the rest of the framework is generic (§3.1 — "simple integration of
    * new engines").
    */
  trait OrchestrationAgent {
    def storeName: String

    /** Apply one operation to the store. Must be idempotent per LSN. */
    def replay(op: Op): Unit
  }

  /** The generic coordinator: drains the log into every agent *in order*,
    * so all stores eventually derive their domain-specific views of the
    * KG over the same underlying base data.
    */
  final class Orchestrator(log: Log, meta: MetadataStore, agents: Seq[OrchestrationAgent]) {
    require(agents.map(_.storeName).distinct.size == agents.size, "agent names must be unique")

    /** Replay all outstanding operations on every agent. Each agent
      * progresses independently from its own recorded LSN, so a slow or
      * newly-added store catches up without disturbing the others.
      */
    def drain(): Unit = agents.foreach(catchUp)

    /** Drain only the named store (e.g. prototyping a new engine). */
    def drain(store: String): Unit = {
      val agent = agents.find(_.storeName == store)
      require(agent.isDefined, s"no orchestration agent for store $store")
      catchUp(agent.get)
    }

    /** Replay the operations after the agent's recorded LSN, in order. */
    private def catchUp(a: OrchestrationAgent): Unit =
      log.readFrom(meta.lsnOf(a.storeName)).foreach { op =>
        a.replay(op)
        meta.replayedUpTo(a.storeName, op.lsn)
      }

    def freshness: Long = meta.freshness(agents.map(_.storeName))
  }
}
