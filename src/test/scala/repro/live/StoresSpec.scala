package repro.live

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch}
import scala.jdk.CollectionConverters._
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.Props
import repro.ml.StringSim
import Stores._

/** Live serving stores: sharded KV store + inverted index (§4.1). */
class StoresSpec extends AnyFunSuite {

  private def index(idx: InvertedIndex, id: String, field: String, text: String): Unit =
    idx.reindex(id, Map.empty, Map(field -> Seq(text)))

  test("kv put/get roundtrip") {
    val kv = new KVStore
    kv.write("a")(_ => Some(Map("name" -> Seq("X"))))
    assert(kv.get("a").contains(Map("name" -> Seq("X"))))
  }

  test("kv get of a missing id is None") {
    assert(new KVStore().get("nope").isEmpty)
  }

  test("kv delete removes the record") {
    val kv = new KVStore
    kv.write("a")(_ => Some(Map("name" -> Seq("X"))))
    kv.write("a")(_ => None)
    assert(kv.get("a").isEmpty)
  }

  test("kv size and ids span shards") {
    val kv = new KVStore
    (1 to 50).foreach(i => kv.write(s"id$i")(_ => Some(Map("n" -> Seq(i.toString)))))
    assert(kv.size == 50)
    assert(kv.ids.toSet == (1 to 50).map(i => s"id$i").toSet)
  }

  test("kv update transforms in place and ignores missing ids") {
    val kv = new KVStore
    kv.write("a")(_ => Some(Map("v" -> Seq("1"))))
    kv.write("a")(_.map(r => r.updated("v", Seq("2"))))
    kv.write("ghost")(_.map(r => r))
    assert(kv.get("a").get("v") == Seq("2"))
  }

  test("kv is safe under concurrent writers") {
    val kv = new KVStore
    val threads = (0 until 8).map { t =>
      new Thread(() => (0 until 500).foreach(i => kv.write(s"k-$t-$i")(_ => Some(Map("x" -> Seq("1"))))))
    }
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(kv.size == 4000)
  }

  test("index lookup finds ids by token") {
    val idx = new InvertedIndex
    index(idx, "e1", "name", "Tom Hanks")
    index(idx, "e2", "name", "Tom Baker")
    assert(idx.lookup("tom") == Set("e1", "e2"))
    assert(idx.lookup("hanks") == Set("e1"))
  }

  test("index lookup intersects multi-token queries") {
    val idx = new InvertedIndex
    index(idx, "e1", "name", "Tom Hanks")
    index(idx, "e2", "name", "Tom Baker")
    assert(idx.lookup("tom hanks") == Set("e1"))
  }

  test("index lookup can be restricted to a field") {
    val idx = new InvertedIndex
    index(idx, "e1", "name", "salem")
    index(idx, "e2", "birthplace", "salem")
    assert(idx.lookup("salem", Some("name")) == Set("e1"))
    assert(idx.lookup("salem") == Set("e1", "e2"))
  }

  test("index lookup is normalization-insensitive") {
    val idx = new InvertedIndex
    index(idx, "e1", "name", "Tom Hanks")
    assert(idx.lookup("TOM  HANKS!") == Set("e1"))
  }

  test("index remove drops all postings of an id") {
    val idx = new InvertedIndex
    index(idx, "e1", "name", "Tom Hanks")
    index(idx, "e2", "name", "Tom Baker")
    idx.reindex("e1", Map("name" -> Seq("Tom Hanks")), Map.empty)
    assert(idx.lookup("tom") == Set("e2"))
    assert(idx.lookup("hanks").isEmpty)
  }

  test("indexRecord indexes every field and value") {
    val idx = new InvertedIndex
    idx.reindex("e1", Map.empty, Map("name" -> Seq("Alpha Beta"), "alias" -> Seq("Gamma")))
    assert(idx.lookup("alpha") == Set("e1"))
    assert(idx.lookup("gamma", Some("alias")) == Set("e1"))
  }

  test("lookup of an empty string is empty") {
    assert(new InvertedIndex().lookup("") == Set.empty)
  }

  // ------------------------------------------- concurrent writes (§4.1, §4.3)
  private val words = Seq("red", "blue", "green", "gold", "iron", "oak")
  private val ids = (0 until 6).map(i => s"kg:e$i")
  /** Writers only ever re-upsert these records unchanged. */
  private val pinned: Map[String, Record] = Map(
    "kg:p0" -> Map("type" -> Seq("person"), "name" -> Seq("Red Oak")),
    "kg:p1" -> Map("type" -> Seq("city"), "name" -> Seq("Blue Iron Gold")))

  private val recGen: Gen[Record] = for {
    ty <- Gen.oneOf("person", "city")
    name <- Gen.choose(1, 2).flatMap(Gen.listOfN(_, Gen.oneOf(words)))
    spouse <- Gen.option(Gen.oneOf(ids ++ pinned.keys))
  } yield Map("type" -> Seq(ty), "name" -> Seq(name.mkString(" "))) ++ spouse.map("spouse" -> Seq(_))

  /** Left: an upsert; Right: a curation of a non-pinned id. */
  private val opGen: Gen[Either[(String, Record), LiveGraph.Curation]] = Gen.frequency(
    3 -> Gen.zip(Gen.oneOf(ids), recGen).map(Left(_)),
    3 -> Gen.oneOf(pinned.toSeq).map(Left(_)),
    2 -> Gen.zip(Gen.oneOf(ids), Gen.oneOf(words), Gen.oneOf(words))
           .map { case (id, o, n) => Right(LiveGraph.EditFact(id, "name", o, n)) },
    1 -> Gen.zip(Gen.oneOf(ids), Gen.oneOf(words :+ "person"))
           .map { case (id, v) => Right(LiveGraph.BlockFact(id, if (v == "person") "type" else "name", v)) },
    1 -> Gen.oneOf(ids).map(id => Right(LiveGraph.BlockEntity(id))))

  private val queryGen: Gen[KGQ.Query] = for {
    ty <- Gen.oneOf("person", "city", "*")
    w1 <- Gen.oneOf(words)
    w2 <- Gen.oneOf(words)
    where <- Gen.oneOf(s"""WHERE name ~ "$w1"""", s"""WHERE name = "$w1 $w2"""",
                       s"""WHERE name ~ "$w1" AND spouse -> (name ~ "$w2")""", "")
  } yield KGQ.parse(s"FIND $ty $where RETURN id LIMIT 100")

  /** Reference KGQ evaluation: a full scan of `ids` with no index. */
  private def scan(q: KGQ.Query, ids: Iterable[String], get: String => Option[Record]): Seq[String] = {
    def holds(rec: Record, c: KGQ.Cond, depth: Int): Boolean = c match {
      case KGQ.Eq(p, v) => rec.getOrElse(p, Seq.empty).exists(StringSim.normalize(_) == StringSim.normalize(v))
      case KGQ.Contains(p, v) =>
        rec.getOrElse(p, Seq.empty).exists(x => StringSim.tokens(v).toSet.subsetOf(StringSim.tokens(x).toSet))
      case KGQ.Hop(p, sub) =>
        depth < 4 && rec.getOrElse(p, Seq.empty).exists(t => get(t).exists(r => sub.forall(holds(r, _, depth + 1))))
    }
    ids.toSeq.sorted.filter { id =>
      get(id).exists(rec => q.etype.forall(t => rec.getOrElse("type", Seq.empty).contains(t)) &&
                            q.conds.forall(holds(rec, _, 0)))
    }.take(q.limit)
  }

  test("concurrent ingest, curation and queries keep the live stores consistent (property)") {
    val gen = Gen.zip(Gen.listOfN(ids.size, recGen), Gen.listOfN(3, Gen.listOfN(100, opGen)),
                      Gen.listOfN(12, queryGen))
    Props.check(Prop.forAllNoShrink(gen) { case (base, writers, queries) =>
      val live = new LiveGraph()
      live.loadStable(ids.zip(base) ++ pinned)
      val engine = new KGQ.Engine(live.kv, live.index)
      val misses = new ConcurrentLinkedQueue[String]()
      val readersDone = new CountDownLatch(2)
      def guarded(body: => Unit): Thread = new Thread(() =>
        try body catch { case e: Throwable => misses.add(s"thread failed: $e") })
      // Writers cycle through their ops until both readers have finished.
      val writerThreads = writers.map(ops => guarded {
        while (readersDone.getCount > 0) ops.foreach {
          case Left(rec) => live.ingest(rec)
          case Right(c)  => live.curate(c)
        }
      })
      val readerThreads = (0 until 2).map(_ => guarded {
        try (0 until 40).foreach { _ =>
          pinned.foreach { case (id, rec) =>
            if (!live.index.lookup(rec("name").head, Some("name")).contains(id)) misses.add(s"lookup $id")
          }
          queries.foreach { q =>
            val got = engine.execute(q).map(_.id).toSet
            scan(q, pinned.keys, pinned.get).filterNot(got).foreach(id => misses.add(s"$id in $q"))
          }
        } finally readersDone.countDown()
      })
      (writerThreads ++ readerThreads).foreach(_.start())
      (writerThreads ++ readerThreads).foreach(_.join())

      val rebuilt = (for {
        id <- live.kv.ids; (field, vals) <- live.kv.get(id).get; v <- vals; t <- StringSim.tokens(v)
      } yield t -> Posting(id, field)).groupMap(_._1)(_._2).map { case (t, ps) => t -> ps.toSet }
      val stale = rebuilt.filter { case (t, ps) => live.index.postings(t) != ps }.keys
      val wrong = queries.filter(q => engine.execute(q).map(_.id) != scan(q, live.kv.ids, live.kv.get))
      (misses.isEmpty :| s"pinned ids missed mid-write: ${misses.asScala.take(3).mkString("; ")}") &&
      (stale.isEmpty :| s"postings differ from the KV store for tokens $stale") &&
      ((live.index.tokenCount == rebuilt.size) :| s"${live.index.tokenCount} tokens, ${rebuilt.size} expected") &&
      (wrong.isEmpty :| s"engine differs from a KV scan on $wrong")
    })
  }
}
