package repro.live

import repro.ml.StringSim
import Stores.{InvertedIndex, KVStore, Record}

/** KGQ (§4.2): the live graph query language. Expressive enough for the
  * semantics of NL queries (entity search with multi-hop traversal
  * constraints), deliberately *less* expressive than general graph query
  * languages so query cost stays bounded. Supports virtual operators:
  * complex expressions encapsulated as reusable named operators.
  *
  * Grammar:
  * {{{
  *   query  := FIND (type | *) [WHERE cond (AND cond)*] RETURN pred (, pred)* [LIMIT n]
  *   cond   := pred = "value"            exact (normalized) match
  *           | pred ~ "value"            token containment
  *           | pred -> ( cond (AND cond)* )   hop: object entity satisfies
  *           | $name("arg", ...)         virtual operator expansion
  * }}}
  */
object KGQ {

  // ---------------------------------------------------------------- AST
  sealed trait Cond
  final case class Eq(pred: String, value: String) extends Cond
  final case class Contains(pred: String, value: String) extends Cond
  final case class Hop(pred: String, sub: Seq[Cond]) extends Cond

  final case class Query(etype: Option[String], conds: Seq[Cond],
                         ret: Seq[String], limit: Int = 25)

  /** A virtual operator: expands to a condition list given its args. */
  type VirtualOp = Seq[String] => Seq[Cond]

  // -------------------------------------------------------------- parser
  final class ParseException(msg: String) extends IllegalArgumentException(msg)

  private def tokenize(s: String): List[String] = {
    val out = scala.collection.mutable.ListBuffer[String]()
    var i = 0
    while (i < s.length) {
      s(i) match {
        case c if c.isWhitespace => i += 1
        case '"' =>
          val end = s.indexOf('"', i + 1)
          if (end < 0) throw new ParseException(s"unterminated string at $i")
          out += ("\"" + s.substring(i + 1, end)); i = end + 1
        case '-' if i + 1 < s.length && s(i + 1) == '>' => out += "->"; i += 2
        case c @ ('(' | ')' | '=' | '~' | ',') => out += c.toString; i += 1
        case _ =>
          // read a bare word until the next delimiter
          var k = i
          while (k < s.length && !s(k).isWhitespace && !"()=~,\"".contains(s(k)) &&
                 !(s(k) == '-' && k + 1 < s.length && s(k + 1) == '>')) k += 1
          out += s.substring(i, k); i = k
      }
    }
    out.toList
  }

  /** Parse a KGQ query, expanding virtual operators from `ops`. */
  def parse(text: String, ops: Map[String, VirtualOp] = Map.empty): Query = {
    var toks = tokenize(text)
    def peek: Option[String] = toks.headOption
    def next(): String = toks match {
      case h :: t => toks = t; h
      case Nil    => throw new ParseException("unexpected end of query")
    }
    def expect(t: String): Unit = {
      val h = next()
      if (!h.equalsIgnoreCase(t)) throw new ParseException(s"expected $t, got $h")
    }
    def str(t: String): String =
      if (t.startsWith("\"")) t.drop(1) else throw new ParseException(s"expected quoted value, got $t")

    def cond(): Seq[Cond] = {
      val head = next()
      if (head.startsWith("$")) {
        val name = head.drop(1)
        val op = ops.getOrElse(name, throw new ParseException(s"unknown virtual operator $$$name"))
        expect("(")
        val args = scala.collection.mutable.ListBuffer[String]()
        while (peek.exists(_ != ")")) {
          val a = next()
          if (a != ",") args += str(a)
        }
        expect(")")
        op(args.toSeq)
      } else peek match {
        case Some("=") => next(); Seq(Eq(head, str(next())))
        case Some("~") => next(); Seq(Contains(head, str(next())))
        case Some("->") =>
          next(); expect("(")
          val subs = scala.collection.mutable.ListBuffer[Cond]()
          subs ++= cond()
          while (peek.exists(_.equalsIgnoreCase("AND"))) { next(); subs ++= cond() }
          expect(")")
          Seq(Hop(head, subs.toSeq))
        case other => throw new ParseException(s"expected = ~ or -> after $head, got $other")
      }
    }

    expect("FIND")
    val ty = next() match { case "*" => None; case t => Some(t) }
    val conds = scala.collection.mutable.ListBuffer[Cond]()
    if (peek.exists(_.equalsIgnoreCase("WHERE"))) {
      next()
      conds ++= cond()
      while (peek.exists(_.equalsIgnoreCase("AND"))) { next(); conds ++= cond() }
    }
    expect("RETURN")
    val ret = scala.collection.mutable.ListBuffer[String](next())
    while (peek.contains(",")) { next(); ret += next() }
    var limit = 25
    if (peek.exists(_.equalsIgnoreCase("LIMIT"))) {
      next()
      val n = next()
      limit = n.toIntOption.filter(_ >= 0)
        .getOrElse(throw new ParseException(s"LIMIT needs a non-negative integer, got $n"))
    }
    if (toks.nonEmpty) throw new ParseException(s"trailing tokens: $toks")
    Query(ty, conds.toSeq, ret.toSeq, limit)
  }

  // ------------------------------------------------------------ executor

  /** One result row: entity id + projected predicate values. */
  final case class ResultRow(id: String, values: Map[String, Seq[String]])

  /** How [[Engine.execute]] ran a query: the constraint that bounded the
    * candidates (`type`, a literal such as `name = "X"`, `hop:<pred>`, or
    * `scan` when nothing bounds them), how many candidates it gave, and how
    * many of them passed verification before `LIMIT`.
    */
  final case class Plan(driving: String, candidates: Int, verified: Int)

  /** The physical execution engine: compiles a query into (1) a driving
    * index retrieval and (2) residual verification against the KV store,
    * parallelized across candidates for large candidate sets (intra-query
    * parallelism, §4.2).
    *
    * The inverted index keys its postings by token, then field. A literal
    * or the type bounds the candidates by its posting set. A hop
    * `p -> (sub)` bounds them by the records whose `p` field holds one of
    * the sub-query's candidate ids, read from field `p`'s postings of each
    * id's tokens, so `birthplace -> (name = "X")` starts from the people
    * born in the places named X. The planner recurses through nested hops
    * and drives from the smallest bound. Every bound is a superset of the
    * matching ids and verification is exact, so the rows do not depend on
    * the plan.
    */
  final class Engine(kv: KVStore, idx: InvertedIndex,
                     ops: Map[String, VirtualOp] = Map.empty) {

    def query(text: String): Seq[ResultRow] = execute(parse(text, ops))

    /** The smallest candidate bound of `conds` (and the type `etype`) with
      * the constraint it came from; `None` when no constraint bounds them.
      * A literal with no tokens bounds nothing: it can match values that
      * index no tokens. A hop bounds nothing when its sub-query is unbounded
      * or one of its candidate ids has no tokens to look up.
      */
    private def bound(conds: Seq[Cond], etype: Option[String]): Option[(String, Set[String])] = {
      val literals = conds.collect {
        case Eq(p, v)       => (s"$p = \"$v\"", p, v)
        case Contains(p, v) => (s"$p ~ \"$v\"", p, v)
      } ++ etype.map(t => ("type", "type", t))
      val best = literals.collect {
        case (label, p, v) if StringSim.tokens(v).nonEmpty => label -> idx.lookup(v, Some(p))
      }.minByOption(_._2.size)
      conds.foldLeft(best) {
        case (acc, Hop(p, sub)) =>
          bound(sub, None).collect {
            case (_, targets) if targets.forall(StringSim.tokens(_).nonEmpty) =>
              s"hop:$p" -> targets.flatMap(t => idx.lookup(t, Some(p)))
          }.filter { case (_, ids) => acc.forall(ids.size < _._2.size) }.orElse(acc)
        case (acc, _) => acc
      }
    }

    private def normEq(a: String, b: String): Boolean =
      StringSim.normalize(a) == StringSim.normalize(b)

    private def holds(rec: Record, c: Cond, depth: Int): Boolean = c match {
      case Eq(p, v)       => rec.getOrElse(p, Seq.empty).exists(normEq(_, v))
      case Contains(p, v) =>
        val toks = StringSim.tokens(v).toSet
        rec.getOrElse(p, Seq.empty).exists(x => toks.subsetOf(StringSim.tokens(x).toSet))
      case Hop(p, sub) =>
        depth < 4 && rec.getOrElse(p, Seq.empty).exists { target =>
          kv.get(target).exists(tr => sub.forall(holds(tr, _, depth + 1)))
        }
    }

    private def verify(q: Query)(id: String): Option[ResultRow] =
      kv.get(id).filter { rec =>
        q.etype.forall(t => rec.getOrElse("type", Seq.empty).contains(t)) &&
        q.conds.forall(holds(rec, _, 0))
      }.map { rec =>
        val vals = q.ret.map {
          case "*"  => "*" -> rec.keys.toSeq.sorted
          case "id" => "id" -> Seq(id)
          case p    => p -> rec.getOrElse(p, Seq.empty)
        }.toMap
        ResultRow(id, vals)
      }

    /** The plan that [[execute]] runs for `q`, with its counts. */
    def explain(q: Query): Plan = run(q)._1

    def execute(q: Query): Seq[ResultRow] = run(q)._2

    private def run(q: Query): (Plan, Seq[ResultRow]) = {
      val (driving, cands) = bound(q.conds, q.etype).getOrElse("scan" -> kv.ids.toSet)
      // Rows come out in id order: both branches keep the candidates' order.
      val sorted = cands.toSeq.sorted
      val rows =
        if (sorted.size > 256) {
          // intra-query parallelism for large candidate sets
          import scala.jdk.CollectionConverters._
          sorted.asJava.parallelStream()
            .map[Option[ResultRow]](id => verify(q)(id))
            .collect(java.util.stream.Collectors.toList[Option[ResultRow]])
            .asScala.flatten.toSeq
        } else sorted.flatMap(verify(q))
      (Plan(driving, sorted.size, rows.size), rows.take(q.limit))
    }
  }
}
