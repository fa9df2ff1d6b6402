package repro

import org.apache.spark.sql.functions._
import repro.construct.{Construction, Matching, ObjectResolutionStep}
import repro.core.{Dataflow, Ontology, Schema}
import repro.engine.{AnalyticsStore, Importance, OpLog}
import repro.exp.KgBuilders
import repro.live.{Intents, KGQ, LiveGraph}
import repro.ml.Nerd

/** End-to-end platform integration (Figure 1): ingestion → construction
  * (with OBR) → shared log → analytics + live stores → KGQ/intents →
  * curation feeding back into construction.
  */
class PlatformIntegrationSpec extends SparkSpec {

  private lazy val u = SynthKG.universe(10)
  private lazy val encoder = KgBuilders.encoderFor(u)
  private lazy val model = Matching.defaultModel(Some(encoder))

  // ---- construction with object resolution over a bootstrap + OBR pass
  private lazy val constructed: Construction.KGState = {
    val payloads = SynthKG.sourceConfigs.take(2)
      .map(s => KgBuilders.payloadFor(spark, u, s, 0, None))
    // first pass without OBR to seed the KG…
    val (s1, _) = Construction.consumeAll(
      Construction.KGState.empty(spark), payloads, model, runTruthDiscovery = false)
    // …then resolve object literals against the seeded KG, as the
    // continuously-running pipeline does on subsequent passes
    val index = new Nerd.Index(
      Nerd.buildEntries(s1.stable, Importance.importanceView(s1.stable, prIterations = 3)),
      encoder)
    val obr = ObjectResolutionStep.resolver(index)
    Construction.KGState(
      Dataflow.pin(obr(s1.stable)), s1.volatile, s1.links)
  }

  test("object resolution rewrote reference literals into KG identifiers") {
    val refs = constructed.stable.filter(
      col(Schema.Predicate).isin(Ontology.entityRefPredicates.keys.toSeq.filter(!_.contains('.')): _*))
    val resolved = refs.filter(col(Schema.Obj).startsWith(Schema.KgNs)).count()
    assert(refs.count() > 0)
    assert(resolved > 0, "no object literal resolved to a KG id")
  }

  test("the operation log coordinates analytics and live stores to the same version") {
    val log = new OpLog.Log
    val meta = new OpLog.MetadataStore
    val analytics = new AnalyticsStore.Store

    val live = new LiveGraph()
    val liveAgent = new OpLog.OrchestrationAgent {
      val storeName = "live"
      def replay(op: OpLog.Op): Unit =
        live.loadStable(LiveGraph.stableView(constructed.full))
    }

    analytics.stage("v1", constructed.stable)
    val orch = new OpLog.Orchestrator(log, meta, Seq(analytics, liveAgent))
    val lsn = log.append("snapshot", "v1")
    orch.drain()
    assert(orch.freshness == lsn)
    assert(analytics.view("person", Seq("name")).count() > 0)
    assert(live.kv.size > 0)
  }

  test("KGQ answers over the served graph and intents route through it") {
    val live = new LiveGraph()
    live.loadStable(LiveGraph.stableView(constructed.full))
    val engine = new KGQ.Engine(live.kv, live.index)

    // pick a person that survived construction with a name fact
    val someName = live.kv.ids.iterator
      .flatMap(id => live.kv.get(id).filter(_.getOrElse("type", Seq.empty).contains("person"))
        .flatMap(_.get("name")).flatMap(_.headOption).map(n => (id, n)))
      .next()
    val rows = engine.query(s"""FIND person WHERE name = "${someName._2}" RETURN name""")
    assert(rows.nonEmpty)

    val er = new Nerd.Index(
      Nerd.buildEntries(constructed.stable,
        Importance.importanceView(constructed.stable, prIterations = 3)), encoder)
    val intents = new Intents.Engine(live, er)
    val res = intents.handle("AgeOf", someName._2)
    // routing works whenever the entity carries a birth_year fact
    res.foreach(r => assert(r.predicate == "birth_year"))
  }

  test("curation hot-fix flows back into stable construction as a source") {
    val live = new LiveGraph()
    live.loadStable(LiveGraph.stableView(constructed.full))
    val pid = live.kv.ids.find(id =>
      live.kv.get(id).exists(_.get("birth_year").exists(_.nonEmpty))).get
    val wrong = live.kv.get(pid).get("birth_year").head

    live.curate(LiveGraph.EditFact(pid, "birth_year", wrong, "1900"))
    assert(live.kv.get(pid).get("birth_year") == Seq("1900"))

    // corrections become a curation source payload for the stable KG
    val corrections = live.drainCorrections()
    assert(corrections.nonEmpty)
    val curTriples = Schema.fromTuples(spark, corrections.collect {
      case LiveGraph.EditFact(s, p, _, nv) =>
        (s, p, null: String, null: String, nv, "en", Seq("curation"), Seq(0.99), 0.99)
    })
    val fused = repro.construct.Fusion.fuse(constructed.stable, curTriples)
    val fact = fused.filter(col(Schema.Subject) === pid &&
      col(Schema.Predicate) === "birth_year" && col(Schema.Obj) === "1900")
    assert(fact.count() == 1)
    val srcs = fact.head().getSeq[String](fact.head().fieldIndex("sources"))
    assert(srcs.contains("curation"))
  }

  test("the full graph (stable ∪ volatile) serves popularity facts") {
    val pop = constructed.full.filter(col(Schema.Predicate) === Ontology.Popularity)
    assert(pop.count() > 0)
  }
}
