package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import OpLog._

/** Shared-log coordination of the polystore (§3.1). */
class OpLogSpec extends AnyFunSuite {

  private final class RecordingAgent(val storeName: String) extends OrchestrationAgent {
    val seen = scala.collection.mutable.ArrayBuffer[Op]()
    def replay(op: Op): Unit = seen += op
  }

  test("append returns strictly increasing LSNs") {
    val log = new Log
    val lsns = (1 to 100).map(i => log.append("snapshot", s"p$i"))
    assert(lsns == (1 to 100).map(_.toLong))
    assert(log.lastLsn == 100L)
  }

  test("readFrom returns only operations after the given LSN, in order") {
    val log = new Log
    (1 to 5).foreach(i => log.append("k", s"p$i"))
    val ops = log.readFrom(2)
    assert(ops.map(_.lsn) == Seq(3L, 4L, 5L))
  }

  test("readFrom(0) returns the whole log") {
    val log = new Log
    (1 to 3).foreach(i => log.append("k", s"p$i"))
    assert(log.readFrom(0).size == 3)
  }

  test("append is thread-safe: no duplicate or lost LSNs") {
    val log = new Log
    val threads = (0 until 8).map(_ => new Thread(() =>
      (0 until 200).foreach(_ => log.append("k", "p"))))
    threads.foreach(_.start()); threads.foreach(_.join())
    val ops = log.readFrom(0)
    assert(ops.size == 1600)
    assert(ops.map(_.lsn).distinct.size == 1600)
  }

  test("metadata store tracks per-store replay progress monotonically") {
    val meta = new MetadataStore
    meta.replayedUpTo("a", 5)
    meta.replayedUpTo("a", 3) // regressions ignored
    assert(meta.lsnOf("a") == 5)
  }

  test("freshness is the minimum across stores") {
    val meta = new MetadataStore
    meta.replayedUpTo("a", 5)
    meta.replayedUpTo("b", 2)
    assert(meta.freshness(Seq("a", "b")) == 2)
    assert(meta.freshness(Seq("a")) == 5)
  }

  test("freshness of an unknown store is 0") {
    assert(new MetadataStore().freshness(Seq("ghost")) == 0)
  }

  test("orchestrator drains every agent in LSN order") {
    val log = new Log
    val meta = new MetadataStore
    val a = new RecordingAgent("a"); val b = new RecordingAgent("b")
    (1 to 4).foreach(i => log.append("snapshot", s"p$i"))
    new Orchestrator(log, meta, Seq(a, b)).drain()
    assert(a.seen.map(_.lsn) == Seq(1L, 2L, 3L, 4L))
    assert(b.seen.map(_.lsn) == Seq(1L, 2L, 3L, 4L))
    assert(meta.freshness(Seq("a", "b")) == 4)
  }

  test("drain is incremental: already-replayed ops are not replayed again") {
    val log = new Log
    val meta = new MetadataStore
    val a = new RecordingAgent("a")
    val orch = new Orchestrator(log, meta, Seq(a))
    log.append("k", "p1")
    orch.drain()
    log.append("k", "p2")
    orch.drain()
    assert(a.seen.map(_.payloadRef) == Seq("p1", "p2"))
  }

  test("a newly added (lagging) store catches up independently") {
    val log = new Log
    val meta = new MetadataStore
    val fast = new RecordingAgent("fast")
    (1 to 3).foreach(i => log.append("k", s"p$i"))
    new Orchestrator(log, meta, Seq(fast)).drain()
    // onboard a new store later — same base data, same order (§3.1)
    val late = new RecordingAgent("late")
    val orch2 = new Orchestrator(log, meta, Seq(fast, late))
    orch2.drain("late")
    assert(late.seen.map(_.lsn) == Seq(1L, 2L, 3L))
    assert(orch2.freshness == 3)
  }

  test("draining an unregistered store is an error") {
    val log = new Log; val meta = new MetadataStore
    log.append("k", "p1")
    val e = intercept[IllegalArgumentException] {
      new Orchestrator(log, meta, Seq(new RecordingAgent("a"))).drain("ghost")
    }
    assert(e.getMessage.contains("ghost"))
  }

  test("agents with duplicate names are rejected") {
    val log = new Log; val meta = new MetadataStore
    intercept[IllegalArgumentException] {
      new Orchestrator(log, meta, Seq(new RecordingAgent("x"), new RecordingAgent("x")))
    }
  }

  test("consumers can gate on a minimum KG version via freshness") {
    val log = new Log
    val meta = new MetadataStore
    val a = new RecordingAgent("a"); val b = new RecordingAgent("b")
    val orch = new Orchestrator(log, meta, Seq(a, b))
    val lsn = log.append("snapshot", "v1")
    orch.drain("a") // only one store has replayed
    assert(meta.freshness(Seq("a", "b")) < lsn) // not yet safe to read everywhere
    orch.drain()
    assert(meta.freshness(Seq("a", "b")) == lsn)
  }
}
