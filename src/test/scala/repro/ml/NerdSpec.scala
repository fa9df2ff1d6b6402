package repro.ml

import org.scalacheck.{Gen, Prop}
import repro.{Props, SparkSpec, SynthKG}
import repro.engine.Importance
import repro.exp.KgBuilders

/** The NERD stack (§5.2): entity view, candidate retrieval, contextual
  * disambiguation with rejection; the popularity baseline contrast.
  */
class NerdSpec extends SparkSpec {

  private lazy val u = SynthKG.universe(15)
  private lazy val kg = repro.core.Dataflow.pin(KgBuilders.directKG(spark, u))
  private lazy val entries = Nerd.buildEntries(kg, Importance.importanceView(kg, prIterations = 4))
  private lazy val encoder = KgBuilders.encoderFor(u)
  private lazy val index = new Nerd.Index(entries, encoder)
  private lazy val baseline = new Nerd.PopularityBaseline(entries)

  private def kgId(tid: String) = KgBuilders.kgIdOf(tid)

  test("entity view has one record per KG entity") {
    assert(entries.size == u.entities.size)
  }

  test("entity view records carry names, types and importance") {
    val e = entries.find(_.id == kgId(u.byType("person").head.id)).get
    assert(e.names.nonEmpty)
    assert(e.types == Seq("person"))
    assert(e.importance >= 0.0)
  }

  test("entity view summarizes relationships with neighbor names (the Hanover signal)") {
    val person = u.byType("person").head
    val e = entries.find(_.id == kgId(person.id)).get
    val city = u.nameOf(person.refs("birthplace"))
    assert(e.relationships.exists(r => r.startsWith("birthplace ") && r.contains(city)),
      s"${e.relationships}")
  }

  test("entity view includes neighbor types") {
    val person = u.byType("person").head
    val e = entries.find(_.id == kgId(person.id)).get
    assert(e.neighborTypes.contains("city"))
  }

  test("candidate retrieval finds exact names") {
    val person = u.byType("person").head
    val cands = index.candidates(person.name)
    assert(cands.exists(_.id == kgId(person.id)))
  }

  test("candidate retrieval honours type hints") {
    // an ambiguous city base name shared with nothing else typed 'city'
    val city = u.byType("city").head
    val cands = index.candidates(city.name, typeHint = Some("city"))
    assert(cands.nonEmpty)
    assert(cands.forall(_.types.contains("city")))
  }

  test("candidate retrieval reaches nickname aliases through the learned vocabulary") {
    val person = u.byType("person")
      .find(p => SynthKG.nicknames.contains(p.name.split(' ').head)).get
    val nick = SynthKG.nicknames(person.name.split(' ').head).head
    val mention = s"$nick ${person.name.split(' ').last}"
    val cands = index.candidates(mention, k = 20)
    assert(cands.nonEmpty)
  }

  test("disambiguation resolves an unambiguous mention with high confidence") {
    val musician = u.byType("musician").head
    val ctx = musician.attrs.values.toSeq ++ Seq(u.nameOf(musician.refs("birthplace")))
    val pred = index.disambiguate(musician.name, ctx)
    assert(pred.isDefined)
    assert(pred.get.id == kgId(musician.id))
    assert(pred.get.confidence > 0.8, pred.get.confidence.toString)
  }

  test("ambiguous mention without context gets low confidence (rejection mechanism)") {
    // a city base name shared by several cities
    val dup = u.byType("city").groupBy(_.name).values.filter(_.size > 1).head
    val pred = index.disambiguate(dup.head.name, context = Seq.empty, typeHint = Some("city"))
    assert(pred.isDefined)
    assert(pred.get.confidence < 0.9, pred.get.confidence.toString)
  }

  test("context disambiguates the Hanover case: related names pick the right city") {
    // pick a duplicated city name where the duplicates sit in different
    // countries, and target the *less* popular one
    val dup = u.byType("city").groupBy(_.name).values
      .filter(g => g.size > 1 && g.map(_.refs("located_in")).distinct.size > 1).head
    val byPop = dup.sortBy(-_.popularity)
    val target = byPop.find(c =>
      c.refs("located_in") != byPop.head.refs("located_in")).getOrElse(byPop.last)
    val country = u.nameOf(target.refs("located_in"))
    val pred = index.disambiguate(target.name, context = country.split(' ').toSeq,
                                  typeHint = Some("city"))
    assert(pred.isDefined)
    assert(pred.get.id == kgId(target.id), s"picked ${pred.get.id}")
  }

  test("no candidates → None (rejection of out-of-KG mentions)") {
    assert(index.disambiguate("Zzyzx Qwwqq", Seq.empty).isEmpty)
  }

  test("baseline resolves head mentions but defaults to importance on ambiguity") {
    val dup = u.byType("city").groupBy(_.name).values.filter(_.size > 1).head
    // the baseline ranks by the structural importance score of the index,
    // so on an ambiguous name it returns the most important duplicate
    val impOf = entries.map(e => e.id -> e.importance).toMap
    val mostImportant = dup.maxBy(c => impOf.getOrElse(kgId(c.id), 0.0))
    val pred = baseline.disambiguate(dup.head.name)
    assert(pred.isDefined)
    assert(pred.get.id == kgId(mostImportant.id))
  }

  test("unseen nickname variants: learned retrieval + context beat the string baseline") {
    // Pick a person whose first name has two nicknames but whose KG alias
    // uses only one of them; mention with the *other* — a rendering never
    // stored in the KG, resolvable only through the learned synonym space.
    val candidates = u.byType("person").flatMap { p =>
      val fn = p.name.split(' ').head
      val ln = p.name.split(' ').last
      SynthKG.nicknames.get(fn).flatMap { nicks =>
        nicks.map(n => s"$n $ln").find(v => !p.allNames.contains(v)).map(v => (p, v))
      }
    }
    assert(candidates.nonEmpty)
    // use one whose surname is reasonably distinctive among these picks
    val (person, unseen) = candidates.head
    val ctx = (u.nameOf(person.refs("birthplace")) +: person.attrs.values.toSeq)
      .flatMap(_.split(' '))
    val nerdPred = index.disambiguate(unseen, ctx, k = 20)
    val basePred = baseline.disambiguate(unseen, k = 20)
    val nerdConf = nerdPred.map(_.confidence).getOrElse(0.0)
    val baseConf = basePred.map(_.confidence).getOrElse(0.0)
    // the learned stack must be at least as confident on the unseen variant
    assert(nerdConf >= baseConf - 0.05, s"nerd=$nerdConf base=$baseConf")
    assert(nerdPred.isDefined)
  }

  // ----------------------------------------------- reference scoring
  // Disambiguation scored from the raw strings: `StringSim.editSim` and
  // `encoder.sim` per (mention, name) pair. The index scores from names and
  // mentions it normalized and encoded once, and must match this bit for bit.

  private def refCalibrate(raw1: Double, raw2: Double): Double = {
    val penalty = 3.5 * math.max(0.0, 0.08 - (raw1 - raw2))
    1.0 / (1.0 + math.exp(-(12.0 * (raw1 - penalty - 0.58))))
  }

  private def refDecide(scored: Seq[(String, Double)]): Option[Nerd.Prediction] =
    if (scored.isEmpty) None
    else {
      val s = scored.sortBy { case (id, v) => (-v, id) }
      Some(Nerd.Prediction(s.head._1, refCalibrate(s.head._2, if (s.size > 1) s(1)._2 else 0.0)))
    }

  private def refIndex(mention: String, context: Seq[String], typeHint: Option[String],
                       k: Int = 10): Option[Nerd.Prediction] = {
    val cands = index.candidates(mention, k, typeHint)
    val maxImp = math.max(1e-9, cands.map(_.importance).maxOption.getOrElse(0.0))
    val ctx = context.flatMap(StringSim.tokens).toSet
    refDecide(cands.map { e =>
      val ns = if (e.names.isEmpty) 0.0
               else e.names.map(n => 0.6 * StringSim.editSim(mention, n) + 0.4 * encoder.sim(mention, n)).max
      val profile = (e.relationships ++ e.neighborTypes ++ e.types ++ e.literals).flatMap(StringSim.tokens).toSet
      val overlap = if (ctx.isEmpty) 0.0
                    else math.min(1.0, ctx.intersect(profile).size.toDouble / math.max(1, math.min(ctx.size, 6)))
      e.id -> (0.80 * ns + 0.08 * (e.importance / maxImp) + 0.12 * overlap)
    })
  }

  private def refBaseline(mention: String, k: Int = 10): Option[Nerd.Prediction] = {
    val toks = StringSim.tokens(mention).toSet
    val maxImp = math.max(1e-9, entries.map(_.importance).maxOption.getOrElse(0.0))
    val hits = entries
      .map(e => e -> e.names.flatMap(StringSim.tokens).toSet)
      .filter { case (_, nt) => nt.exists(toks) }
      .sortBy { case (e, nt) => (-toks.intersect(nt).size, -e.importance, e.id) }
      .take(k).map(_._1)
    refDecide(hits.map { e =>
      val ns = if (e.names.isEmpty) 0.0 else e.names.map(StringSim.editSim(mention, _)).max
      e.id -> (0.8 * ns + 0.2 * (e.importance / maxImp))
    })
  }

  /** Same id and the same confidence bits. */
  private def same(a: Option[Nerd.Prediction], b: Option[Nerd.Prediction]): Boolean =
    a.map(p => (p.id, java.lang.Double.doubleToRawLongBits(p.confidence))) ==
      b.map(p => (p.id, java.lang.Double.doubleToRawLongBits(p.confidence)))

  test("predictions equal the raw-string reference scoring, bit for bit (property)") {
    val names = entries.flatMap(_.names).toIndexedSeq
    val words = entries.flatMap(e => e.relationships ++ e.literals).flatMap(_.split(' ')).distinct.toIndexedSeq
    val types = entries.flatMap(_.types).distinct
    val name = Gen.oneOf(names)
    // names as stored, with a token dropped, a typo, case and punctuation
    // noise, or a nickname-like first token; and pure noise
    val mention = Gen.frequency(
      4 -> name,
      2 -> name.flatMap(n => Gen.choose(0, n.length).map(i => n.patch(i, "x", 1))),
      2 -> name.map(n => n.split(' ').drop(1).mkString(" ")),
      2 -> name.map(n => n.toUpperCase.replace(" ", ", ") + "!"),
      1 -> Gen.zip(Gen.oneOf(SynthKG.nicknames.values.flatten.toSeq), name)
             .map { case (nick, n) => (nick +: n.split(' ').drop(1)).mkString(" ") },
      1 -> Gen.alphaStr.map(_.take(8)))
    val context = Gen.choose(0, 6).flatMap(Gen.listOfN(_, Gen.oneOf(words)))
    val hint = Gen.option(Gen.oneOf(types :+ "no_such_type"))
    Props.check(Prop.forAll(mention, context, hint, Gen.oneOf(1, 3, 10)) { (m, ctx, th, k) =>
      same(index.disambiguate(m, ctx, th, k), refIndex(m, ctx, th, k)) &&
        same(baseline.disambiguate(m, k), refBaseline(m, k))
    }, minTests = 300)
  }

  test("E4 and E5 mention sets: predictions equal the raw-string reference scoring") {
    SynthKG.mentions(u, 300).foreach { m =>
      assert(same(index.disambiguate(m.surface, m.context), refIndex(m.surface, m.context, None)), m)
      assert(same(baseline.disambiguate(m.surface), refBaseline(m.surface)), m)
    }
    SynthKG.obrRecords(u, 300).foreach { r =>
      assert(same(index.disambiguate(r.value, r.context), refIndex(r.value, r.context, None)), r)
      assert(same(index.disambiguate(r.value, r.context, Some(r.typeHint)),
                  refIndex(r.value, r.context, Some(r.typeHint))), r)
      assert(same(baseline.disambiguate(r.value), refBaseline(r.value)), r)
    }
  }
}
