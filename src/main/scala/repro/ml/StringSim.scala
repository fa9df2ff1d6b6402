package repro.ml

/** String similarity library (§5.1).
  *
  * Deterministic functions (edit distance, Jaccard, q-gram cosine) plus a
  * *learned* similarity that goes beyond typos and captures synonyms such
  * as "Robert" ~ "Bob".
  *
  * Substitution note (see DESIGN.md §3): the paper trains character-level
  * neural encoders with a triplet loss over distant supervision harvested
  * from KG aliases. We preserve the training signal and the interface —
  * strings are encoded into vectors, similarity is cosine, supervision
  * comes from alias clusters in the KG — but replace the neural network
  * with (a) a hashed character-n-gram encoder (typos) composed with (b) a
  * token-embedding table learned from alias clusters: every token observed
  * in the names/aliases of the same entity is pulled to the cluster
  * centroid, which is exactly the fixed point a triplet loss converges to
  * on clean data. No GPU needed; same qualitative behaviour.
  */
object StringSim {

  /** Normalize: lower-case, then keep the runs of `[a-z0-9]` and join them
    * with single spaces. Every other character — punctuation, whitespace,
    * accented and non-Latin letters — separates runs and is dropped, so
    * `"José Müller"` becomes `"jos m ller"`. Idempotent; null gives `""`.
    */
  def normalize(s: String): String = tokens(s).mkString(" ")

  /** The runs of [[normalize]], in order. */
  def tokens(s: String): Seq[String] =
    if (s == null) Seq.empty
    else {
      val l = s.toLowerCase
      val out = Seq.newBuilder[String]
      var i = 0
      while (i < l.length) {
        if (isTokenChar(l.charAt(i))) {
          val from = i
          while (i < l.length && isTokenChar(l.charAt(i))) i += 1
          out += l.substring(from, i)
        } else i += 1
      }
      out.result()
    }

  private def isTokenChar(c: Char): Boolean = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')

  // ---------------------------------------------------------------- basics

  /** Levenshtein edit distance. */
  def editDistance(a: String, b: String): Int = levenshtein(normalize(a), normalize(b))

  /** Levenshtein distance of two already-normalized strings. */
  private def levenshtein(x: String, y: String): Int = {
    if (x.isEmpty) return y.length
    if (y.isEmpty) return x.length
    var prev = Array.tabulate(y.length + 1)(identity)
    var cur = new Array[Int](y.length + 1)
    var i = 1
    while (i <= x.length) {
      cur(0) = i
      var j = 1
      while (j <= y.length) {
        val cost = if (x(i - 1) == y(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = cur; cur = t
      i += 1
    }
    prev(y.length)
  }

  /** Edit similarity in [0,1]: 1 - dist / maxLen. */
  def editSim(a: String, b: String): Double = normalizedEditSim(normalize(a), normalize(b))

  /** [[editSim]] of two already-normalized strings. */
  private[ml] def normalizedEditSim(x: String, y: String): Double = {
    val m = math.max(x.length, y.length)
    if (m == 0) 1.0 else 1.0 - levenshtein(x, y).toDouble / m
  }

  /** Token-set Jaccard similarity. */
  def jaccard(a: String, b: String): Double = {
    val (ta, tb) = (tokens(a).toSet, tokens(b).toSet)
    if (ta.isEmpty && tb.isEmpty) 1.0
    else if (ta.isEmpty || tb.isEmpty) 0.0
    else ta.intersect(tb).size.toDouble / ta.union(tb).size
  }

  /** Length of the character q-grams. */
  private val Q = 3

  /** Character q-grams of the padded, normalized string. */
  def qgrams(s: String): Seq[String] = normalizedQgrams(normalize(s))

  private def normalizedQgrams(n: String): Seq[String] =
    if (n.isEmpty) Seq.empty else ("#" * (Q - 1) + n + "#" * (Q - 1)).sliding(Q).toSeq

  /** Jaccard over q-gram sets — the blocking-friendly typo-tolerant sim. */
  def qgramJaccard(a: String, b: String): Double = {
    val (ga, gb) = (qgrams(a).toSet, qgrams(b).toSet)
    if (ga.isEmpty && gb.isEmpty) 1.0
    else if (ga.isEmpty || gb.isEmpty) 0.0
    else ga.intersect(gb).size.toDouble / ga.union(gb).size
  }

  // ------------------------------------------------- hashed n-gram encoder

  /** Dimensionality of the hashed character-n-gram vector space. */
  val Dim = 256

  /** Encode a single token as an L2-normalized hashed char-n-gram vector. */
  def encodeToken(tok: String): Array[Double] = encodeNormalizedToken(normalize(tok))

  /** [[encodeToken]] of an already-normalized token. */
  private def encodeNormalizedToken(tok: String): Array[Double] = {
    val v = new Array[Double](Dim)
    normalizedQgrams(tok).foreach { g =>
      val h = math.abs(g.hashCode) % Dim
      v(h) += 1.0
    }
    l2normalize(v)
  }

  /** Encode a full string as the normalized mean of its token encodings. */
  def encode(s: String): Array[Double] = meanVec(tokens(s).map(encodeNormalizedToken))

  def l2normalize(v: Array[Double]): Array[Double] = {
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n == 0) v else v.map(_ / n)
  }

  def cosine(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "dimension mismatch")
    var s = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    while (i < a.length) { s += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0 || nb == 0) 0.0 else s / math.sqrt(na * nb)
  }

  private def meanVec(vs: Seq[Array[Double]]): Array[Double] = {
    if (vs.isEmpty) return new Array[Double](Dim)
    val acc = new Array[Double](Dim)
    vs.foreach { v => var i = 0; while (i < Dim) { acc(i) += v(i); i += 1 } }
    l2normalize(acc)
  }

  /** Cosine similarity of the raw (untrained) n-gram encodings — robust to
    * typos, blind to synonyms.
    */
  def ngramCosine(a: String, b: String): Double = cosine(encode(a), encode(b))

  // ----------------------------------------------------- learned encoders

  /** A string encoder whose token table was trained from KG alias clusters
    * via distant supervision (§5.1). One encoder is trained per string type
    * ("human names", "location names", ...) by the caller feeding it only
    * alias clusters of that type.
    *
    * @param tokenTable learned token → embedding; tokens outside the table
    *                   back off to their raw n-gram encoding.
    */
  final class LearnedEncoder(val tokenTable: Map[String, Array[Double]]) extends Serializable {

    def encodeString(s: String): Array[Double] = encodeTokens(tokens(s))

    /** [[encodeString]] of a string whose [[tokens]] are `toks`. */
    private[ml] def encodeTokens(toks: Seq[String]): Array[Double] =
      meanVec(toks.map(t => tokenTable.getOrElse(t, encodeNormalizedToken(t))))

    /** Learned similarity: cosine of the learned encodings. */
    def sim(a: String, b: String): Double = cosine(encodeString(a), encodeString(b))
  }

  /** Train a [[LearnedEncoder]] from alias clusters: each cluster is the
    * set of names+aliases of one KG entity (distant supervision — the KG
    * itself supplies the positives; negatives are implicit because tokens
    * of unlinked entities simply never share a centroid).
    *
    * Training: every token's embedding is the L2-normalized mean of the
    * centroids of all clusters it occurs in, where a cluster centroid is
    * the mean raw n-gram encoding of its member tokens. Tokens that
    * co-occur in alias clusters ("robert" and "bob" as aliases of the same
    * people) end up near-identical even though their character n-grams
    * share nothing — the synonym capture the paper describes.
    */
  def trainEncoder(aliasClusters: Seq[Seq[String]]): LearnedEncoder = {
    val tokenToCentroids = scala.collection.mutable.HashMap[String, List[Array[Double]]]()
    aliasClusters.foreach { cluster =>
      val toks = cluster.flatMap(tokens).distinct
      if (toks.nonEmpty) {
        val centroid = meanVec(toks.map(encodeNormalizedToken))
        toks.foreach { t =>
          tokenToCentroids(t) = centroid :: tokenToCentroids.getOrElse(t, Nil)
        }
      }
    }
    val table = tokenToCentroids.iterator.map { case (t, cents) =>
      // Blend the distant-supervision signal with the token's own surface
      // form so that unrelated tokens sharing a cluster with a common word
      // do not collapse together entirely.
      val learned = meanVec(cents)
      val own = encodeNormalizedToken(t)
      val blended = new Array[Double](Dim)
      var i = 0
      while (i < Dim) { blended(i) = 0.7 * learned(i) + 0.3 * own(i); i += 1 }
      t -> l2normalize(blended)
    }.toMap
    new LearnedEncoder(table)
  }
}
