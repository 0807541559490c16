package repro.baselines

import org.apache.spark.sql.functions.col
import repro.core._
import repro.nrab._

/** Lineage-based missing-answer baselines, read from the original query's
  * lane (SA 0) of the RP trace (no schema alternatives, no revalidation of
  * compatibles): their death probes are counted by the same Spark job as
  * lane 0's witness fail-sets ([[Explain.solve]]).
  *
  *  - [[Baselines.wnPlusPlus]] — the paper's WN++: Why-Not [9] extended to
  *    scale and to nested data. Compatible source tuples are traced
  *    forward with original operator semantics; the explanation is the
  *    operator at which the longest-surviving fully-eliminated compatible
  *    died (the most downstream "picky" operator). Compatibles whose
  *    successors reach the (non-matching) output contribute nothing; no
  *    compatibles or no deaths -> no explanation.
  *  - [[Baselines.whyNot]] — Chapman & Jagadish's Why-Not; same frontier
  *    rule (they coincide on the paper's crime scenarios C1–C3).
  *  - [[Baselines.conseil]] — Herschel's hybrid Conseil [19]: virtually
  *    repairs the picky operator and keeps tracing, returning the combined
  *    set of all picky operators along the longest-surviving compatible's
  *    path.
  *
  * Deaths are *path-restricted*: a compatible from table T is only blamed
  * on operators that are ancestors of T's table access; a join on the
  * path fails for T when T's side has no original-world partner (the
  * tracer's wnJoin flags).
  */
object Baselines {

  /** WN++ explanations: zero or one operator set. */
  def wnPlusPlus(q: Question): Seq[Set[Int]] = frontier(deaths(q)).toSeq

  /** Why-Not [9] baseline (crime-scenario comparison, §6.4). */
  def whyNot(q: Question): Option[Set[Int]] = frontier(deaths(q))

  /** Conseil [19] baseline: combined picky set of the compatible that
    * survived longest.
    */
  def conseil(q: Question): Option[Set[Int]] =
    deaths(q).minByOption(_.deathPos).map(_.failSets.minBy(s => (s.size, s.toSeq.sorted.mkString)))

  /** The death operator of the longest-surviving compatible (WN++, Why-Not). */
  private[repro] def frontier(deaths: Seq[Death]): Option[Set[Int]] =
    deaths.minByOption(_.deathPos).map(d => Set(d.deathOp))

  /** Death summary for one traced table: the most downstream death
    * position/operator among its compatibles, and the distinct full
    * failure sets of the rows dying there (for Conseil).
    */
  final case class Death(table: String, deathPos: Int, deathOp: Int, failSets: Seq[Set[Int]])

  private def deaths(q: Question): Seq[Death] =
    Explain.solve(q, Seq(Explain.originalSa(q)), withWn = true).deaths

  /** One death probe per traced table T over the original query's lane
    * ``traced``, keyed by lane -(k+1) for the k-th table: its rows are T's
    * compatibles and its flags those of the tracked operators on T's
    * lineage path (for a join, T's side's original-world partner flag).
    */
  private[repro] def probes(q: Question, placement: Placement, traced: Traced): Seq[(String, FailProbe)] = {
    val allTables = q.query.allOps.collect { case TableAccess(_, n) => n }.distinct
    val traceTables = q.wnTraceTables.getOrElse {
      val constrained = allTables.filter(placement.constrainedTables.contains)
      if (constrained.nonEmpty) constrained else allTables
    }
    def reads(op: Op, table: String) = op.allOps.exists { case TableAccess(_, n) => n == table; case _ => false }

    traceTables.zipWithIndex.flatMap { case (table, k) =>
      val path = traced.tracked.flatMap { t =>
        q.query.find(t.opId).get match {
          case op if !reads(op, table) => None
          case j: Join =>
            val (wl, wr) = traced.wnJoin(j.id)
            Some(j.id -> col(if (reads(j.left, table)) wl else wr))
          case _ => Some(t.opId -> col(t.retCol))
        }
      }
      traced.compat.get(table).filter(_ => path.nonEmpty).map(c => table -> FailProbe(-(k + 1), col(c), path))
    }
  }

  /** The deaths the ``probes`` counted into ``failSets``. A compatible dies
    * at the first failing operator of its path in evaluation order, the
    * one with the largest pre-order position in its failed set; rows with
    * an empty failed set never died.
    */
  private[repro] def deaths(q: Question, probes: Seq[(String, FailProbe)],
                            failSets: Map[Int, Seq[(Set[Int], Long)]]): Seq[Death] = {
    val ops = q.query.allOps
    val pos = ops.map(_.id).zipWithIndex.toMap
    probes.flatMap { case (table, p) =>
      val died = failSets.getOrElse(p.lane, Seq.empty).collect { case (s, _) if s.nonEmpty => s.map(pos).max -> s }
      died.map(_._1).minOption.map { at =>
        Death(table, at, ops(at).id, died.collect { case (`at`, s) => s }.distinct)
      }
    }
  }
}
