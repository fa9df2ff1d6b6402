package repro.construct

import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthKG}
import repro.core.{Dataflow, Ontology, Schema}
import repro.exp.KgBuilders

/** End-to-end knowledge construction (§2.3–2.4): bootstrap + incremental
  * consumption of the synthetic source fleet, validated against the
  * ground-truth universe.
  */
class ConstructionSpec extends SparkSpec {

  private val scale = 12
  private lazy val u = SynthKG.universe(scale)
  private lazy val encoder = KgBuilders.encoderFor(u)
  private lazy val model = Matching.defaultModel(Some(encoder))
  private lazy val sources = SynthKG.sourceConfigs.take(3) // wiki, musicdb, moviedb

  private lazy val bootPayloads =
    sources.map(s => KgBuilders.payloadFor(spark, u, s, 0, None))
  private lazy val state0: Construction.KGState = {
    val (st, _) = Construction.consumeAll(
      Construction.KGState.empty(spark), bootPayloads, model, runTruthDiscovery = false)
    st
  }

  // Ground-truth mapping: for each source record id, the true entity.
  private lazy val truthOf: Map[String, String] =
    sources.flatMap(s => SynthKG.sourceRecords(u, s, 0)).map(r => r.id -> r.trueId).toMap

  private lazy val linkPairs: Map[String, String] = {
    import spark.implicits._
    state0.links.as[(String, String)].collect().toMap
  }

  // The Added and Updated rows of `p` whose subject is in `links`: the
  // rows a consume that returns the link table `links` fuses.
  private def linkedRows(p: Construction.SourcePayload, links: DataFrame): Long =
    p.added.unionByName(p.updated)
      .join(links.select(col("srcId").as(Schema.Subject)), Seq(Schema.Subject), "left_semi").count()

  test("bootstrap produces a non-empty KG") {
    assert(state0.factCount() > 0)
    assert(state0.entityCount() > 0)
  }

  test("every source entity received a link") {
    val srcIds = truthOf.keySet
    assert(srcIds.subsetOf(linkPairs.keySet))
  }

  test("all linked ids are in the KG namespace") {
    assert(linkPairs.values.forall(_.startsWith(Schema.KgNs)))
  }

  test("linking precision: records linked together mostly share a true entity") {
    // Group source records by assigned kg id; measure pairwise purity.
    // Distinct true entities can legitimately share a full name in the
    // synthetic universe (homonyms), so those merges are counted
    // separately — they are irreducible without extra evidence.
    val nameOf = (tid: String) => repro.ml.StringSim.normalize(u.byId(tid).name)
    val byKg = linkPairs.toSeq.groupBy(_._2).values.filter(_.size > 1)
    var same = 0L; var homonym = 0L; var total = 0L
    byKg.foreach { grp =>
      val trueIds = grp.map(g => truthOf(g._1))
      for (i <- trueIds.indices; j <- (i + 1) until trueIds.size) {
        total += 1
        if (trueIds(i) == trueIds(j)) same += 1
        else if (nameOf(trueIds(i)) == nameOf(trueIds(j))) homonym += 1
      }
    }
    if (total > 0) {
      assert(same.toDouble / total > 0.75, s"purity ${same.toDouble / total}")
      // non-homonym merge errors must be rare
      val hardErrors = total - same - homonym
      assert(hardErrors.toDouble / total < 0.1,
        s"hard merge errors $hardErrors of $total pairs")
    }
  }

  test("linking recall: most cross-source duplicates got the same kg id") {
    // true entities seen by >=2 source records
    val byTrue = truthOf.toSeq.groupBy(_._2).values.filter(_.size > 1)
    val (merged, total) = byTrue.foldLeft((0L, 0L)) { case ((m, t), grp) =>
      val kgIds = grp.map(g => linkPairs(g._1))
      val pairs = for {
        i <- kgIds.indices; j <- (i + 1) until kgIds.size
      } yield if (kgIds(i) == kgIds(j)) 1L else 0L
      (m + pairs.sum, t + pairs.size)
    }
    assert(total > 0)
    assert(merged.toDouble / total > 0.6, s"pairwise recall ${merged.toDouble / total}")
  }

  test("entity count is close to the number of distinct true entities covered") {
    val trueCovered = truthOf.values.toSet.size
    val entities = state0.entityCount()
    // over-splitting inflates, over-merging deflates; allow 25% slack
    assert(entities < trueCovered * 1.3, s"$entities vs $trueCovered")
    assert(entities > trueCovered * 0.7, s"$entities vs $trueCovered")
  }

  test("same_as facts provide full provenance of linking") {
    val sameAs = state0.stable.filter(col(Schema.Predicate) === Ontology.SameAs)
    val n = sameAs.count()
    assert(n >= truthOf.size, s"$n same_as facts for ${truthOf.size} source records")
  }

  test("fused facts carry merged multi-source provenance") {
    val multi = state0.stable
      .filter(size(col(Schema.Sources)) > 1)
      .count()
    assert(multi > 0, "expected facts corroborated by multiple sources")
  }

  test("provenance arrays stay aligned with trust arrays") {
    val bad = state0.stable
      .filter(size(col(Schema.Sources)) =!= size(col(Schema.Trust)))
      .count()
    assert(bad == 0)
  }

  test("volatile partition holds popularity facts in KG namespace") {
    val vol = state0.volatile
    assert(vol.count() > 0)
    assert(vol.filter(col(Schema.Predicate) =!= Ontology.Popularity).count() == 0)
    assert(vol.filter(!col(Schema.Subject).startsWith(Schema.KgNs)).count() == 0)
  }

  test("incremental consume of epoch-1 deltas updates the KG") {
    val deltas = sources.map(s => KgBuilders.payloadFor(spark, u, s, 1, Some((s, 0))))
    val (state1, stats) = Construction.consumeAll(state0, deltas, model, runTruthDiscovery = false)
    // epoch 1 adds entities (entry ramp) — facts and entities must not shrink dramatically
    assert(state1.factCount() >= state0.factCount())
    // Updated entities reuse their links instead of relinking; updated and
    // deleted ones retract their KG subjects. A source only looks up ids
    // of its own namespace, which earlier consumes leave as in state0.
    import spark.implicits._
    def linkedSubjects(triples: DataFrame): Seq[String] =
      triples.select(Schema.Subject).distinct().as[String].collect().toSeq.filter(linkPairs.contains)
    deltas.zip(stats).foreach { case (d, st) =>
      val upd = linkedSubjects(d.updated)
      val retracted = (upd ++ linkedSubjects(d.deleted)).map(linkPairs).toSet
      assert(st.reusedLinks == upd.size, st)
      assert(st.retractedSubjects == retracted.size, st)
      // Sources link disjoint namespaces, so the final link table holds
      // each source's links as its own consume returned them.
      assert(st.fusedFacts == linkedRows(d, state1.links), st)
    }
    assert(stats.map(_.reusedLinks).sum > 0 && stats.map(_.retractedSubjects).sum > 0, stats)
  }

  test("deleted entities lose this source's provenance") {
    import spark.implicits._
    // construct a synthetic deletion: remove one linked record's payload
    val someSrc = truthOf.keys.head
    val srcName = someSrc.split(':')(0)
    val delTriples = bootPayloads.find(_.source == srcName).get.added
      .filter(col(Schema.Subject) === someSrc)
    val payload = Construction.SourcePayload(srcName,
      added = Schema.emptyTriples(spark), deleted = delTriples,
      updated = Schema.emptyTriples(spark), volatileDump = Schema.emptyTriples(spark))
    val (state1, _) = Construction.consume(state0, payload, model, runTruthDiscovery = false)
    val kgId = linkPairs(someSrc)
    val remaining = state1.stable
      .filter(col(Schema.Subject) === kgId && array_contains(col(Schema.Sources), srcName))
      .count()
    assert(remaining == 0, s"facts of $kgId still cite $srcName")
    // link table no longer carries the deleted source id
    assert(state1.links.filter(col("srcId") === someSrc).count() == 0)
  }

  test("an updated record with no prior link is linked and fused") {
    import spark.implicits._
    // An out-of-order feed: the record arrives as Updated but was never
    // linked, and `Delta.compute` will not re-emit it as Added.
    val someSrc = truthOf.keys.head
    val srcName = someSrc.split(':')(0)
    val orphan = s"$srcName:never-linked"
    val updTriples = bootPayloads.find(_.source == srcName).get.added
      .filter(col(Schema.Subject) === someSrc)
      .withColumn(Schema.Subject, lit(orphan))
    val payload = Construction.SourcePayload(srcName,
      added = Schema.emptyTriples(spark), deleted = Schema.emptyTriples(spark),
      updated = updTriples, volatileDump = Schema.emptyTriples(spark))
    val (state1, st) = Construction.consume(state0, payload, model, runTruthDiscovery = false)
    assert(st.fusedFacts == linkedRows(payload, state1.links), st)
    val kgIds = state1.links.filter(col("srcId") === orphan).select("kgId").as[String].collect()
    assert(kgIds.length == 1 && Schema.isKgId(kgIds.head), kgIds.mkString(","))
    def facts(df: DataFrame): Set[(String, String)] =
      df.filter(col(Schema.RId).isNull).select(Schema.Predicate, Schema.Obj).as[(String, String)].collect().toSet
    val fused = facts(state1.stable.filter(
      col(Schema.Subject) === kgIds.head && array_contains(col(Schema.Sources), srcName)))
    assert(facts(updTriples).subsetOf(fused))
    assert(fused.contains((Ontology.SameAs, orphan)))
  }

  test("consuming an onboarding payload again leaves one link per srcId, deterministically") {
    import spark.implicits._
    // As in op-log replay: every record of the payload is linked anew
    // while the link table already holds it.
    val replay = bootPayloads.head
    def linkTable(): Seq[(String, String)] =
      Construction.consume(state0, replay, model, runTruthDiscovery = false)._1
        .links.as[(String, String)].collect().toSeq.sorted
    val first = linkTable()
    assert(first.map(_._1).distinct.size == first.size)
    assert(first.map(_._1).toSet == linkPairs.keySet)
    assert(linkTable() == first)
  }

  // musicdb's epoch-1 delta, its payloads pinned as the ingestion platform
  // hands them over.
  private lazy val musicdbDelta: Construction.SourcePayload = {
    val p = KgBuilders.payloadFor(spark, u, sources(1), 1, Some((sources(1), 0)))
    p.copy(added = Dataflow.pin(p.added), deleted = Dataflow.pin(p.deleted),
           updated = Dataflow.pin(p.updated), volatileDump = Dataflow.pin(p.volatileDump))
  }

  test("an updated record keeps its same_as fact") {
    import spark.implicits._
    val (state1, _) = Construction.consume(state0, musicdbDelta, model, runTruthDiscovery = false)
    val updated = musicdbDelta.updated.select(Schema.Subject).distinct().as[String].collect()
      .filter(linkPairs.contains)
    assert(updated.nonEmpty)
    val sameAs = state1.stable
      .filter(col(Schema.Predicate) === Ontology.SameAs && array_contains(col(Schema.Sources), sources(1).name))
      .select(Schema.Obj, Schema.Subject).as[(String, String)].collect().toSet
    val lost = updated.filterNot(s => sameAs((s, linkPairs(s))))
    assert(lost.isEmpty, s"${lost.length} of ${updated.length} updated records lost their same_as fact")
  }

  test("an epoch-1 delta consume runs at most 27 Spark jobs") {
    val (sc, group) = (spark.sparkContext, "construction-spec-delta-jobs")
    val (state, delta) = (state0, musicdbDelta) // built outside the counted group
    val jobs = new java.util.concurrent.atomic.AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(js: SparkListenerJobStart): Unit =
        if (Option(js.properties).exists(_.getProperty("spark.jobGroup.id") == group)) jobs.incrementAndGet()
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "one delta consume")
      try Construction.consume(state, delta, model) finally sc.clearJobGroup()
      TestListenerBus.waitUntilEmpty(sc)
    } finally sc.removeSparkListener(listener)
    assert(jobs.get > 0 && jobs.get <= 27, s"${jobs.get} jobs")
  }

  test("boot and delta consumes return the same rows under 1, 3 and 64 shuffle partitions") {
    import spark.implicits._
    val boot = sources.take(2).map { s =>
      val p = KgBuilders.payloadFor(spark, u, s, 0, None)
      p.copy(added = Dataflow.pin(p.added), volatileDump = Dataflow.pin(p.volatileDump))
    }
    def run(): Seq[Seq[String]] = {
      val (st, _) = Construction.consumeAll(Construction.KGState.empty(spark), boot :+ musicdbDelta, model)
      Seq(st.stable, st.volatile, st.links).map(_.collect().map(_.toString).toSeq.sorted)
    }
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val runs = try Seq(1, 3, 64).map { n => spark.conf.set(key, n.toString); run() }
               finally spark.conf.set(key, saved)
    assert(runs.head.forall(_.nonEmpty))
    runs.tail.foreach { r =>
      val differing = r.zip(runs.head).map { case (a, b) => a.diff(b).size + b.diff(a).size }
      assert(differing.forall(_ == 0), s"rows differing in (stable, volatile, links): $differing")
    }
  }

  test("fullRebuild equals bootstrap construction on the same payloads") {
    val rebuilt = Construction.fullRebuild(spark, bootPayloads, model)
    assert(rebuilt.factCount() == state0.factCount())
    assert(rebuilt.entityCount() == state0.entityCount())
  }
}
