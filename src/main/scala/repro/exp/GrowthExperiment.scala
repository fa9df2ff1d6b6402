package repro.exp

import org.apache.spark.sql.SparkSession
import repro.SynthKG
import repro.construct.{Construction, Matching}

/** E3 (Figure 12): relative growth of facts and entities in the KG across
  * a multi-year timeline with Saga introduced mid-series. The paper
  * reports >33× fact growth and 6.5× entity growth since the initial
  * measurement, with the inflection at Saga's introduction.
  *
  * Simulation (DESIGN.md §3): quarters 0..N. Pre-Saga, a single source
  * ("wiki") is consumed through a limited legacy pipeline (most
  * predicates dropped) and refreshed only every other quarter. From the
  * Saga quarter on, ingestion is self-serve: the wiki pipeline is
  * upgraded to full predicate coverage, a new source is onboarded every
  * quarter, and every onboarded source ships deltas each quarter.
  * Entities enter source coverage gradually (entryFrac), modeling
  * real-world data growth.
  */
object GrowthExperiment {

  final case class QuarterStat(quarter: Int, saga: Boolean, sources: Int,
                               facts: Long, entities: Long,
                               factsRel: Double, entitiesRel: Double)

  final case class E3Result(stats: Seq[QuarterStat], sagaQuarter: Int) {
    def table: String = Table.render(
      s"E3 / Figure 12 — relative KG growth (Saga introduced at quarter $sagaQuarter; " +
        "paper: 33x facts, 6.5x entities)",
      Seq("quarter", "saga", "#sources", "facts", "entities", "facts(rel)", "entities(rel)"),
      stats.map(s => Seq(s.quarter.toString, if (s.saga) "yes" else "pre", s.sources.toString,
                         s.facts.toString, s.entities.toString,
                         Table.f2(s.factsRel) + "x", Table.f2(s.entitiesRel) + "x")))
  }

  def run(spark: SparkSession, scale: Int = 30, quarters: Int = 12,
          sagaQuarter: Int = 4): E3Result = {
    val u = SynthKG.universe(scale)
    val maxEpoch = quarters

    // Slow-entry variants of the source fleet: the world (and each feed)
    // grows over the timeline.
    def slowEntry(s: SynthKG.SourceConfig) = s.copy(entryFrac = 0.18)
    val fullWiki = slowEntry(SynthKG.sourceConfigs.find(_.name == "wiki").get)
    // The legacy pre-Saga wiki pipeline ingests few predicates and cannot
    // ship composite relationship nodes (one-hop triplication of extended
    // triples is a Saga ingestion feature, §2.4).
    val legacyWiki = fullWiki.copy(predicateDropRate = 0.8, includeComposites = false)
    val others = SynthKG.sourceConfigs.filterNot(_.name == "wiki").map(slowEntry)

    val model = Matching.defaultModel(Some(KgBuilders.encoderFor(u)))

    var state = Construction.KGState.empty(spark)
    // source → (config, epoch) it was last consumed with
    var lastConsumed = Map.empty[String, (SynthKG.SourceConfig, Int)]
    val stats = Seq.newBuilder[QuarterStat]
    var base: Option[(Long, Long)] = None

    for (q <- 0 until quarters) {
      val saga = q >= sagaQuarter
      // Which sources publish this quarter, with which pipeline config.
      val publishing: Seq[SynthKG.SourceConfig] =
        if (!saga) { if (q % 2 == 0) Seq(legacyWiki) else Seq.empty }
        else {
          // self-serve: one new source onboarded per quarter, all
          // previously onboarded sources ship deltas every quarter
          val onboarded = others.take(q - sagaQuarter + 1)
          fullWiki +: onboarded
        }
      for (src <- publishing) {
        val payload = KgBuilders.payloadFor(spark, u, src, epoch = q,
          prev = lastConsumed.get(src.name), maxEpoch = maxEpoch)
        val (next, _) = Construction.consume(state, payload, model, runTruthDiscovery = false)
        state = next
        lastConsumed += src.name -> (src, q)
      }
      val facts = state.factCount()
      val ents = state.entityCount()
      if (base.isEmpty && facts > 0) base = Some((facts, ents))
      val (bf, be) = base.getOrElse((1L, 1L))
      stats += QuarterStat(q, saga, lastConsumed.size, facts, ents,
        facts.toDouble / math.max(1L, bf), ents.toDouble / math.max(1L, be))
    }
    E3Result(stats.result(), sagaQuarter)
  }
}
