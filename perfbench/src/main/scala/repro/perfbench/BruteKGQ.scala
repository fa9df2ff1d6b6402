package repro.perfbench

import repro.live.KGQ
import repro.live.KGQ.{Contains, Eq, Hop, ResultRow}
import repro.live.Stores.{KVStore, Record}
import repro.ml.StringSim

/** Reference evaluator for KGQ: scans every record of the KV store and
  * applies the query semantics directly, with no inverted index and no
  * candidate push-down. The serve workload compares `KGQ.Engine` with it
  * once the writes have stopped.
  */
object BruteKGQ {

  def query(kv: KVStore, q: KGQ.Query): Seq[ResultRow] =
    kv.ids.sorted.iterator.flatMap { id =>
      kv.get(id).filter(rec => matches(kv, rec, q)).map(rec => project(id, rec, q.ret))
    }.take(q.limit).toSeq

  def matches(kv: KVStore, rec: Record, q: KGQ.Query): Boolean =
    q.etype.forall(t => rec.getOrElse("type", Seq.empty).contains(t)) &&
      q.conds.forall(holds(kv, rec, _, 0))

  private def holds(kv: KVStore, rec: Record, c: KGQ.Cond, depth: Int): Boolean = c match {
    case Eq(p, v) =>
      val want = StringSim.normalize(v)
      rec.getOrElse(p, Seq.empty).exists(x => StringSim.normalize(x) == want)
    case Contains(p, v) =>
      val want = StringSim.tokens(v).toSet
      rec.getOrElse(p, Seq.empty).exists(x => want.subsetOf(StringSim.tokens(x).toSet))
    case Hop(p, sub) =>
      depth < 4 && rec.getOrElse(p, Seq.empty).exists { target =>
        kv.get(target).exists(t => sub.forall(holds(kv, t, _, depth + 1)))
      }
  }

  private def project(id: String, rec: Record, ret: Seq[String]): ResultRow =
    ResultRow(id, ret.map {
      case "*"  => "*" -> rec.keys.toSeq.sorted
      case "id" => "id" -> Seq(id)
      case p    => p -> rec.getOrElse(p, Seq.empty)
    }.toMap)
}
