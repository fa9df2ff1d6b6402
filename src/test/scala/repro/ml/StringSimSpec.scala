package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.Props

/** Deterministic and learned string similarities (§5.1). */
class StringSimSpec extends AnyFunSuite {
  import StringSim._

  // ------------------------------------------------------------ normalize
  test("normalize lowercases and strips punctuation") {
    assert(normalize("J. Smith!") == "j smith")
  }
  test("normalize collapses whitespace") {
    assert(normalize("  a   b  ") == "a b")
  }
  test("normalize of null is empty") {
    assert(normalize(null) == "")
  }
  test("tokens splits on spaces") {
    assert(tokens("Robert  De Niro") == Seq("robert", "de", "niro"))
  }
  test("tokens of empty string is empty") {
    assert(tokens("") == Seq.empty)
  }
  test("normalize keeps only [a-z0-9] after lower-casing: accented letters separate runs") {
    assert(normalize("José Müller") == "jos m ller")
    assert(tokens("José Müller") == Seq("jos", "m", "ller"))
  }

  // A regex statement of the `normalize` contract, which the scan must equal.
  private def refNormalize(s: String): String =
    if (s == null) "" else s.toLowerCase.replaceAll("[^a-z0-9 ]", " ").replaceAll("\\s+", " ").trim
  private def refTokens(s: String): Seq[String] = {
    val n = refNormalize(s)
    if (n.isEmpty) Seq.empty else n.split(' ').toSeq
  }

  /** Strings mixing ASCII and punctuation, ASCII and Unicode whitespace,
    * accented letters, letters whose lower case has another length
    * (İ → i + U+0307), context-dependent lower cases (final Σ), the
    * Kelvin sign (lower case `k`), lone surrogates and supplementary code
    * points (one with a case mapping).
    */
  private val messy: Gen[String] = {
    val piece = Gen.frequency(
      6 -> Gen.alphaNumChar.map(_.toString),
      2 -> Gen.oneOf(" .,;:!?-_'\"()[]/&#@*+=~`|\\".map(_.toString)),
      2 -> Gen.oneOf(" ", "  ", "\t", "\n", "\r", "\u000b", "\f", "\u00a0", "\u3000", "\u2028"),
      2 -> Gen.oneOf("é", "Ü", "ñ", "Ø", "Ç", "Å", "ï"),
      2 -> Gen.oneOf("İ", "ß", "ﬁ", "Σ", "ΑΣ", "\u212a"),
      1 -> Gen.oneOf("\ud800", "\udc00", "\ud83d\ude00", "\ud801\udc00", "\ud835\udc00"))
    Gen.listOf(piece).map(_.mkString)
  }

  test("normalize and tokens equal the regex reference on mixed Unicode strings (property)") {
    Props.check(Prop.forAll(messy) { s =>
      normalize(s) == refNormalize(s) && tokens(s) == refTokens(s)
    }, minTests = 2000)
  }
  test("normalize is idempotent, and tokens of the normalized form are the tokens (property)") {
    Props.check(Prop.forAll(messy) { s =>
      val n = normalize(s)
      normalize(n) == n && tokens(n) == tokens(s)
    }, minTests = 500)
  }

  // -------------------------------------------------------- edit distance
  test("editDistance of identical strings is 0") {
    assert(editDistance("hanover", "hanover") == 0)
  }
  test("editDistance single substitution") {
    assert(editDistance("hanover", "hanovar") == 1)
  }
  test("editDistance insert and delete") {
    assert(editDistance("kitten", "sitting") == 3)
  }
  test("editDistance against empty string is the length") {
    assert(editDistance("", "abc") == 3)
    assert(editDistance("abc", "") == 3)
  }
  test("editDistance is symmetric (property)") {
    val g = Gen.alphaStr.map(_.take(12))
    Props.check(Prop.forAll(g, g) { (a, b) => editDistance(a, b) == editDistance(b, a) })
  }
  test("editDistance triangle inequality (property)") {
    val g = Gen.alphaLowerStr.map(_.take(8))
    Props.check(Prop.forAll(g, g, g) { (a, b, c) =>
      editDistance(a, c) <= editDistance(a, b) + editDistance(b, c)
    })
  }
  test("editSim in [0,1] (property)") {
    val g = Gen.alphaStr.map(_.take(15))
    Props.check(Prop.forAll(g, g) { (a, b) =>
      val s = editSim(a, b); s >= 0.0 && s <= 1.0
    })
  }
  test("editSim of identical strings is 1") {
    assert(editSim("Bob Smith", "Bob Smith") == 1.0)
  }

  // --------------------------------------------------------------- jaccard
  test("jaccard of identical token sets is 1") {
    assert(jaccard("alpha beta", "beta alpha") == 1.0)
  }
  test("jaccard of disjoint token sets is 0") {
    assert(jaccard("alpha", "beta") == 0.0)
  }
  test("jaccard half overlap") {
    assert(math.abs(jaccard("a b", "b c") - 1.0 / 3) < 1e-9)
  }
  test("jaccard both empty is 1") {
    assert(jaccard("", "") == 1.0)
  }

  // ---------------------------------------------------------------- qgrams
  test("qgrams pad the string") {
    assert(qgrams("ab").head == "##a")
  }
  test("qgrams of empty are empty") {
    assert(qgrams("").isEmpty)
  }
  test("qgramJaccard tolerates a single typo better than disjoint strings") {
    val typo = qgramJaccard("hanover", "hanovar")
    val far = qgramJaccard("hanover", "springfield")
    assert(typo > 0.4 && far < 0.2)
  }
  test("qgramJaccard in [0,1] (property)") {
    val g = Gen.alphaStr.map(_.take(15))
    Props.check(Prop.forAll(g, g) { (a, b) =>
      val s = qgramJaccard(a, b); s >= 0.0 && s <= 1.0
    })
  }

  // --------------------------------------------------------------- encoder
  test("encodeToken is L2-normalized") {
    val v = encodeToken("robert")
    assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-9)
  }
  test("cosine of a vector with itself is 1") {
    val v = encode("robert smith")
    assert(math.abs(cosine(v, v) - 1.0) < 1e-9)
  }
  test("cosine rejects mismatched dimensions") {
    intercept[IllegalArgumentException] {
      cosine(Array(1.0), Array(1.0, 2.0))
    }
  }
  test("ngramCosine is high for typos, low for unrelated strings") {
    assert(ngramCosine("jennifer", "jenifer") > 0.7)
    assert(ngramCosine("jennifer", "xqzw") < 0.2)
  }
  test("ngramCosine is blind to synonyms (the gap learned sims close)") {
    assert(ngramCosine("robert", "bob") < 0.5)
  }

  // ------------------------------------------------------- learned encoder
  private lazy val learned = {
    // distant supervision: alias clusters as harvested from the KG
    val clusters = Seq(
      Seq("Robert Smith", "Bob Smith", "R. Smith"),
      Seq("Robert Jones", "Bob Jones"),
      Seq("William Davis", "Bill Davis"),
      Seq("Elizabeth Brown", "Liz Brown"),
      Seq("Margaret Hall", "Peggy Hall"),
    )
    StringSim.trainEncoder(clusters)
  }

  test("learned encoder captures nickname synonyms") {
    assert(learned.sim("Robert Smith", "Bob Smith") > 0.8)
  }
  test("learned synonym sim greatly exceeds the raw n-gram sim") {
    assert(learned.sim("Robert Smith", "Bob Smith") >
           ngramCosine("Robert Smith", "Bob Smith") + 0.2)
  }
  test("learned encoder does not collapse unrelated names") {
    assert(learned.sim("Robert Smith", "Elizabeth Brown") < 0.75)
  }
  test("learned encoder generalizes the synonym across clusters") {
    // robert↔bob was seen with Smith and Jones; it transfers to unseen pairs
    assert(learned.sim("robert", "bob") > 0.6)
  }
  test("learned encoder backs off to n-grams for unseen tokens") {
    assert(learned.sim("zyxwv", "zyxwv") > 0.99)
  }
  test("learned sim still tolerates typos") {
    assert(learned.sim("Robert Smith", "Robert Smyth") > 0.6)
  }
  test("learned sim is symmetric (property over seen vocab)") {
    val names = Seq("Robert Smith", "Bob Smith", "Bill Davis", "Liz Brown", "Peggy Hall")
    for (a <- names; b <- names)
      assert(math.abs(learned.sim(a, b) - learned.sim(b, a)) < 1e-9)
  }
}
