package repro.construct

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Dataflow, Ontology, Schema}

/** The continuously-running, delta-based knowledge construction framework
  * (§2.4, Figure 5). It always consumes source diffs:
  *
  *   - ToAdd: fully linked (all linking stages) then fused,
  *   - ToUpdate: previously linked — links are *looked up*, the source's
  *     old contribution is retracted and the new payload fused (a record
  *     with no link is linked with ToAdd),
  *   - ToDelete: links looked up, provenance retracted, links dropped,
  *   - volatile dump: fused last by per-source partition overwrite.
  *
  * The payloads are prepared one after another (each Spark job is parallel
  * across partitions); fusion is the per-source synchronization point.
  * A brand-new source is a full Added payload (see `Delta.bootstrap`).
  */
object Construction {

  /** The KG between construction runs: stable triples, volatile triples
    * (partitioned by source via their provenance), and the link table
    * (source entity id → KG entity id) that makes construction
    * incremental.
    */
  final case class KGState(stable: DataFrame, volatile: DataFrame, links: DataFrame) {

    /** The served graph: stable and volatile facts together. */
    def full: DataFrame = stable.unionByName(volatile)

    /** Cut lineage so state does not accumulate plans across batches. */
    def materialized: KGState =
      KGState(Dataflow.pin(stable), Dataflow.pin(volatile), Dataflow.pin(links))

    def entityCount(): Long =
      stable.select(Schema.Subject).distinct().count()

    def factCount(): Long = stable.count()
  }

  object KGState {
    def empty(spark: SparkSession): KGState = {
      import spark.implicits._
      KGState(Schema.emptyTriples(spark), Schema.emptyTriples(spark),
              Seq.empty[(String, String)].toDF("srcId", "kgId"))
    }
  }

  /** One source's prepared payload, as produced by the ingestion platform:
    * extended triples in the source namespace, pre-partitioned.
    */
  final case class SourcePayload(
      source: String,
      added: DataFrame,
      deleted: DataFrame,
      updated: DataFrame,
      volatileDump: DataFrame,
  )

  /** What one consume did.
    * @param source            the consumed source
    * @param linkedNew         source entities linked anew (Added, and Updated with no prior link)
    * @param reusedLinks       Updated source entities whose prior link was looked up
    * @param retractedSubjects KG entities whose facts from this source were retracted
    * @param fusedFacts        Added and Updated rows fused: those whose subject is linked afterwards
    */
  final case class Stats(source: String, linkedNew: Long, reusedLinks: Long,
                         retractedSubjects: Long, fusedFacts: Long)

  /** Consume one source payload into the KG. `obr` is the object
    * resolution hook (see [[ObjectResolutionStep]]); identity when absent.
    */
  def consume(state: KGState, payload: SourcePayload,
              model: Matching.Model,
              obr: DataFrame => DataFrame = identity,
              runTruthDiscovery: Boolean = true): (KGState, Stats) = {
    val spark = state.stable.sparkSession
    import spark.implicits._

    // The driver inputs are bounded by the payload, so one collect gathers
    // (kind, subject, type?) per payload row: the types to link, the link
    // lookups and every `Stats` field come from it and the local links.
    val isType = col(Schema.Predicate) === Ontology.TypePred
    val inputs = Seq("a" -> payload.added, "u" -> payload.updated, "d" -> payload.deleted)
      .map { case (k, t) => t.select(lit(k), col(Schema.Subject), when(isType, col(Schema.Obj))) }
      .reduce(_ union _).as[(String, String, Option[String])].collect().toSeq
    def subjects(kind: String) = inputs.collect { case (`kind`, s, _) => s }.distinct
    val (updIds, delIds) = (subjects("u"), subjects("d"))
    val known: Map[String, String] =
      if (updIds.isEmpty && delIds.isEmpty) Map.empty
      else state.links.filter(col("srcId").isin(updIds ++ delIds: _*))
        .as[(String, String)].collect().toMap
    val updLinks = updIds.flatMap(s => known.get(s).map(s -> _))
    val delLinks = delIds.flatMap(s => known.get(s).map(s -> _))
    val unlinkedUpd = updIds.filterNot(known.contains).toSet

    // ------------------------------------------------------------- ToAdd
    // Fully linked: extract the per-type KG view, link, rewrite, resolve.
    // Updated records with no prior link (out-of-order feeds) join it:
    // `Delta.compute` never re-emits them as Added.
    val added = payload.added.unionByName(payload.updated.filter(col(Schema.Subject).isin(unlinkedUpd.toSeq: _*)))
    val addTypes = inputs.collect {
      case ("a", _, Some(t)) => t
      case ("u", s, Some(t)) if unlinkedUpd(s) => t
    }.distinct
    val (addPayload, newLinks) =
      if (addTypes.isEmpty) (Schema.emptyTriples(spark), Seq.empty[(String, String)])
      else {
        val links = Linking.run(added, Linking.kgViewForTypes(state.stable, addTypes), model)
        (obr(Linking.rewriteSubjects(added, links)), links)
      }

    // ---------------------------------------------------------- ToUpdate
    // Previously linked: links are looked up in the current KG (§2.4) —
    // no blocking/matching.
    val updPayload = obr(Linking.rewriteSubjects(payload.updated, updLinks))

    // ---------------------------------------------------------- ToDelete
    val retractSubjects = (updLinks ++ delLinks).map(_._2).distinct

    // ------------------------------------------------- fusion sync point
    // Retract this source's prior contribution for updated+deleted
    // subjects, then fuse the new payloads in one pass, with the same_as
    // provenance of every new and looked-up link: retraction strips an
    // updated record's same_as fact with the rest of its facts. The
    // payloads feed only this plan, and each is a broadcast join of a
    // payload with a driver-local link table (the same_as rows are a
    // local relation), so the plan stays shallow without a barrier.
    // Only the fused KG is pinned: truth discovery reads it three times.
    val fused = Fusion.fuse(
      Fusion.retractSource(state.stable, payload.source, retractSubjects),
      addPayload.unionByName(Linking.sameAs(spark, newLinks ++ updLinks)), updPayload)
    val newStable = if (runTruthDiscovery) Fusion.truthDiscovery(Dataflow.pin(fused)) else fused

    // ------------------------------------------------------ link table
    // Deleted records lose their links and newly linked ones replace any
    // they had (an Added payload consumed again, as in op-log replay).
    val replaced = delLinks.map(_._1) ++ newLinks.map(_._1)
    val allLinks = state.links.filter(!col("srcId").isin(replaced: _*))
      .unionByName(newLinks.toDF("srcId", "kgId"))

    // -------------------------------------------------------- volatile
    // Map the dump into the KG namespace through the *new* link table,
    // then overwrite this source's volatile partition (optimized path —
    // no join against KG triples).
    val dumpLinked = payload.volatileDump
      .join(allLinks.withColumnRenamed("srcId", Schema.Subject), Seq(Schema.Subject))
      .drop(Schema.Subject).withColumnRenamed("kgId", Schema.Subject)
    val newVolatile = Fusion.overwriteVolatilePartition(
      state.volatile, payload.source, Schema.canonicalize(dumpLinked))

    val newIds = newLinks.map(_._1).toSet
    val next = KGState(newStable, newVolatile, allLinks).materialized
    val stats = Stats(payload.source,
      linkedNew = newLinks.size, reusedLinks = updLinks.size,
      retractedSubjects = retractSubjects.size,
      fusedFacts = inputs.count { case (k, s, _) => k != "d" && (newIds(s) || k == "u" && known.contains(s)) })
    (next, stats)
  }

  /** Consume several sources one after another (no inter-source
    * parallelism): each payload is linked and fused before the next.
    */
  def consumeAll(state: KGState, payloads: Seq[SourcePayload], model: Matching.Model,
                 obr: DataFrame => DataFrame = identity,
                 runTruthDiscovery: Boolean = true): (KGState, Seq[Stats]) =
    payloads.foldLeft((state, Seq.empty[Stats])) { case ((st, acc), p) =>
      val (n, s) = consume(st, p, model, obr, runTruthDiscovery)
      (n, acc :+ s)
    }

  /** Full (non-incremental) construction of the same payloads — the
    * baseline for E8: every batch re-links everything from scratch.
    */
  def fullRebuild(spark: SparkSession, payloads: Seq[SourcePayload],
                  model: Matching.Model,
                  obr: DataFrame => DataFrame = identity,
                  runTruthDiscovery: Boolean = true): KGState = {
    val bootstrapped = payloads.map(p => p.copy(
      added = p.added.unionByName(p.updated),
      deleted = Schema.emptyTriples(spark), updated = Schema.emptyTriples(spark)))
    consumeAll(KGState.empty(spark), bootstrapped, model, obr, runTruthDiscovery)._1
  }
}
