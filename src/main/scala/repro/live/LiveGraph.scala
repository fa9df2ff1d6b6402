package repro.live

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SynthKG
import repro.core.Schema
import repro.ml.Nerd
import Stores.{InvertedIndex, KVStore, Record}

/** The Live Knowledge Graph (§4): the union of a view of the stable graph
  * with real-time streaming sources (sports scores, etc.), indexed in the
  * low-latency KV store and inverted index.
  *
  * Live sources are uniquely identifiable (no linking/fusion needed) but
  * contain potentially ambiguous *textual* references to stable entities
  * — teams, venues, cities — which are resolved against the stable graph
  * through the Entity Resolution service (the NERD index), §4.1.
  *
  * Curation (§4.3): facts flagged by curators are hot-fixed directly in
  * the live indexes and simultaneously emitted as a correction stream
  * that stable construction consumes as a source.
  */
final class LiveGraph {
  val kv = new KVStore
  val index = new InvertedIndex

  /** Corrections emitted by curation, consumed by stable construction. */
  val correctionLog = new ConcurrentLinkedQueue[LiveGraph.Curation]()

  /** The one writer of both stores: `kv.write` serializes writes per id,
    * and the old record it passes in is the forward index that the
    * postings diff starts from.
    */
  private def write(id: String)(f: Option[Record] => Option[Record]): Unit =
    kv.write(id) { old =>
      val rec = f(old)
      index.reindex(id, old.getOrElse(Map.empty), rec.getOrElse(Map.empty))
      rec
    }

  /** Ingest a resolved live event (already linked to stable entities). */
  def ingest(rec: (String, Record)): Unit = write(rec._1)(_ => Some(rec._2))

  /** Load a view of the stable graph. */
  def loadStable(entities: Seq[(String, Record)]): Unit = entities.foreach(ingest)

  /** Apply a curation action: hot-fix the live indexes and emit the
    * correction for the stable graph (§4.3).
    */
  def curate(c: LiveGraph.Curation): Unit = {
    write(c.subject)(c match {
      case LiveGraph.BlockFact(_, predicate, value) =>
        _.map(rec => rec.updated(predicate, rec.getOrElse(predicate, Seq.empty).filterNot(_ == value)))
      case LiveGraph.EditFact(_, predicate, oldValue, newValue) =>
        _.map { rec =>
          val vs = rec.getOrElse(predicate, Seq.empty)
          val replaced = if (vs.contains(oldValue)) vs.map(v => if (v == oldValue) newValue else v)
                         else vs :+ newValue
          rec.updated(predicate, replaced)
        }
      case LiveGraph.BlockEntity(_) => _ => None
    })
    correctionLog.add(c)
  }

  def drainCorrections(): Seq[LiveGraph.Curation] = {
    val out = Seq.newBuilder[LiveGraph.Curation]
    var c = correctionLog.poll()
    while (c != null) { out += c; c = correctionLog.poll() }
    out.result()
  }
}

object LiveGraph {

  /** Human-in-the-loop curation actions (§4.3). */
  sealed trait Curation { def subject: String }
  final case class BlockFact(subject: String, predicate: String, value: String) extends Curation
  final case class EditFact(subject: String, predicate: String,
                            oldValue: String, newValue: String) extends Curation
  final case class BlockEntity(subject: String) extends Curation

  /** Collect a serving view of the stable KG: entity records with all
    * predicate values (composites flattened as `pred.r_predicate`).
    */
  def stableView(kg: DataFrame): Seq[(String, Record)] = {
    val spark = kg.sparkSession
    import spark.implicits._
    kg.select(
        col(Schema.Subject),
        Schema.flatPredicate.as("pred"),
        col(Schema.Obj))
      .as[(String, String, String)]
      .collect().toSeq
      .groupBy(_._1)
      .map { case (id, rows) =>
        id -> rows.groupBy(_._2).map { case (p, vs) => p -> vs.map(_._3).distinct.sorted.toSeq }
      }.toSeq
  }

  /** Minimum ER confidence for a live event's reference to bind to a stable id. */
  private val ResolveThreshold = 0.7

  /** Resolve a raw live event's textual entity references against the
    * stable graph via the ER service (§4.1) and produce the live entity
    * record. Unresolved references stay textual — the application can
    * still render them, just without stable-graph reasoning.
    */
  def resolveEvent(ev: SynthKG.LiveEvent, er: Nerd.Index): (String, Record) = {
    def res(surface: String, hint: String): Seq[String] =
      er.disambiguate(surface, Seq.empty, Some(hint)) match {
        case Some(p) if p.confidence >= ResolveThreshold => Seq(p.id)
        case _ => Seq(surface)
      }
    val rec: Record = Map(
      "type" -> Seq(ev.kind),
      "home_team" -> res(ev.homeRef, "team"),
      "away_team" -> res(ev.awayRef, "team"),
      "venue_city" -> res(ev.venueRef, "city"),
      "ts" -> Seq(ev.ts.toString),
    ) ++ ev.payload.map { case (k, v) => k -> Seq(v) }
    (s"live:${ev.eventId}", rec)
  }
}
