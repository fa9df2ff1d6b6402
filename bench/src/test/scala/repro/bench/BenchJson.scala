package repro.bench

import java.nio.file.{Files, Paths}
import scala.sys.process._
import scala.util.Try

/** Writes a bench suite's headline numbers to `BENCH_<exp>.json` in the
  * working directory (`bench/` under sbt), with the host's core count and
  * the git revision of the checkout the numbers were measured on.
  */
object BenchJson {
  def write(exp: String, fields: Seq[(String, Any)]): Unit = {
    def git(args: String*): Option[String] = Try(("git" +: args).!!.trim).toOption
    val sha = git("rev-parse", "HEAD").getOrElse("unknown")
    val dirty = git("status", "--porcelain", "--untracked-files=no").exists(_.nonEmpty)
    val all = fields ++ Seq("cores" -> Runtime.getRuntime.availableProcessors,
                            "git_sha" -> (if (dirty) s"$sha-dirty" else sha))
    def json(v: Any): String = v match {
      case s: String  => "\"" + s + "\""
      case d: Double  => f"$d%.3f"
      case xs: Seq[_] => xs.map(json).mkString("[", ", ", "]")
      case x          => x.toString
    }
    val body = all.map { case (k, v) => s"""  "$k": ${json(v)}""" }
    Files.write(Paths.get(s"BENCH_$exp.json"), body.mkString("{\n", ",\n", "\n}\n").getBytes("UTF-8"))
  }
}
