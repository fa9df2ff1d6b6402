package repro.construct

import org.apache.spark.sql.functions._
import repro.{SparkSpec, SynthKG}
import repro.core.Schema
import repro.engine.Importance
import repro.exp.KgBuilders
import repro.ml.Nerd

/** Object resolution during construction (§2.3): literals in entity-
  * reference predicates become KG identifiers via NERD with type hints.
  */
class ObjectResolutionSpec extends SparkSpec {

  private lazy val u = SynthKG.universe(15)
  private lazy val kg = repro.core.Dataflow.pin(KgBuilders.directKG(spark, u))
  private lazy val index = new Nerd.Index(
    Nerd.buildEntries(kg, Importance.importanceView(kg, prIterations = 4)),
    KgBuilders.encoderFor(u))
  private lazy val obr = ObjectResolutionStep.resolver(index)

  private def t(s: String, p: String, o: String, rid: String = null, rp: String = null) =
    (s, p, rid, rp, o, "en", Seq("wiki"), Seq(0.9), 0.9)

  test("a unique school literal resolves to its KG id") {
    // pick a school whose city word occurs in exactly one school name, so
    // the literal is globally unambiguous
    def cityWord(s: SynthKG.TrueEntity): String =
      if (s.name.startsWith("University of ")) s.name.stripPrefix("University of ")
      else s.name.split(' ').head
    val school = u.byType("school").groupBy(cityWord).values
      .filter(_.size == 1).map(_.head).toSeq.sortBy(_.id).head
    val person = u.byType("person").head
    val in = Schema.fromTuples(spark, Seq(
      t(KgBuilders.kgIdOf(person.id), "educated_at", school.name, rid = "x#r0", rp = "school")))
    val out = obr(in).head().getAs[String](Schema.Obj)
    assert(out == KgBuilders.kgIdOf(school.id), s"got $out for ${school.name}")
  }

  test("recorded_by literals resolve against musicians") {
    val counts = u.byType("musician").groupBy(_.name).view.mapValues(_.size).toMap
    val m = u.byType("musician").find(x => counts(x.name) == 1).get
    val in = Schema.fromTuples(spark, Seq(t("kg:song1", "recorded_by", m.name)))
    val out = obr(in).head().getAs[String](Schema.Obj)
    assert(out == KgBuilders.kgIdOf(m.id))
  }

  test("non-reference predicates are left untouched") {
    val in = Schema.fromTuples(spark, Seq(t("kg:p1", "occupation", "actor")))
    assert(obr(in).head().getAs[String](Schema.Obj) == "actor")
  }

  test("already-resolved kg ids pass through") {
    val in = Schema.fromTuples(spark, Seq(t("kg:p1", "birthplace", "kg:abcdef0123456789")))
    assert(obr(in).head().getAs[String](Schema.Obj) == "kg:abcdef0123456789")
  }

  test("ambiguous city literals stay literal at the 0.9 construction threshold") {
    val dup = u.byType("city").groupBy(_.name).values.filter(_.size > 2).headOption
      .getOrElse(u.byType("city").groupBy(_.name).values.filter(_.size > 1).head)
    val in = Schema.fromTuples(spark, Seq(t("kg:p1", "birthplace", dup.head.name)))
    val out = obr(in).head().getAs[String](Schema.Obj)
    assert(out == dup.head.name, s"ambiguous literal was resolved to $out")
  }

  test("unknown literals stay literal") {
    val in = Schema.fromTuples(spark, Seq(t("kg:p1", "birthplace", "Atlantis Prime")))
    assert(obr(in).head().getAs[String](Schema.Obj) == "Atlantis Prime")
  }

  test("type hints prevent cross-type resolution") {
    // a person named like a city cannot capture a birthplace slot; build a
    // literal that exists only as a team name
    val team = u.byType("team").head
    val in = Schema.fromTuples(spark, Seq(t("kg:p1", "birthplace", team.name)))
    val out = obr(in).head().getAs[String](Schema.Obj)
    // either unresolved or resolved to a city (the team's city shares the
    // name prefix) — never to the team itself
    assert(out != KgBuilders.kgIdOf(team.id))
  }

  test("composite reference predicates use the pred.rpred ontology key") {
    val school = u.byType("school").head
    val in = Schema.fromTuples(spark, Seq(
      t("kg:p1", "educated_at", school.name, rid = "x#r0", rp = "degree")))
    // degree is NOT an entity-reference r-predicate: stays literal
    assert(obr(in).head().getAs[String](Schema.Obj) == school.name)
  }
}
