package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.baselines.Baselines
import repro.nrab._
import repro.whynot.NTup

/** A why-not question Φ = ⟨Q, D, t⟩ (paper Def. 5) plus the algorithm's
  * inputs: the attribute-alternative groups (paper §5.2 assumes these are
  * provided) and, for the lineage baselines, which tables' tuples to
  * trace (None = tables constrained by the backtraced NIP, or all tables
  * when none is constrained). A query the tracer cannot trace (union) is
  * rejected here, with [[UntraceableOpException]] naming the operator.
  */
final case class Question(
    query: Op,
    tables: Map[String, DataFrame],
    nip: NTup,
    altGroups: Seq[AltGroup] = Seq.empty,
    wnTraceTables: Option[Seq[String]] = None,
    baselineCompat: Map[String, Pred] = Map.empty) {
  query.allOps.collectFirst { case u: UnionOp => u }.foreach { u =>
    throw new UntraceableOpException(u.id, s"tracing through union is not supported (${u.label})")
  }

  def tableSchemas: Map[String, Seq[String]] = tables.map { case (n, df) => n -> df.columns.toSeq }
}

/** One query-based explanation: a set of operators to reparameterize
  * (an element of E≈, paper Def. 10 approximated by Alg. 1/4).
  *
  * ``ops`` are operator ids; ``labels`` the paper-style rendering;
  * ``saIndex`` the schema alternative it came from (0 = original);
  * ``witnesses`` the number of consistent witness rows whose failure
  * set yields it, summed over the SAs that yield it (a support count, not
  * §5.4's side-effect bound Δ+; ranking does not use it).
  */
final case class Explanation(ops: Set[Int], labels: Set[String], saIndex: Int, witnesses: Long) {
  override def toString: String = labels.toSeq.sorted.mkString("{", ", ", "}")
}

/** What one trace of a question answers ([[Explain.solve]]): per lane
  * (position in ``sas``) the fail-set histogram of the SA's consistent
  * witness rows, and, when WN++ was asked for, the death summary of every
  * traced table.
  */
final case class Solution(query: Op, sas: Seq[SchemaAlternative],
                          failSets: Map[Int, Seq[(Set[Int], Long)]],
                          deaths: Seq[Baselines.Death]) {

  /** RP: explanations across all SAs. */
  def rp: Seq[Explanation] = explain(sas.indices)

  /** RPnoSA: explanations of the original SA (lane 0) alone. */
  def rpNoSA: Seq[Explanation] = explain(Seq(0))

  private def explain(lanes: Seq[Int]): Seq[Explanation] = {
    val found = scala.collection.mutable.Map.empty[Set[Int], Explanation]
    for {
      i <- lanes
      sa = sas(i)
      (failSet, n) <- failSets.getOrElse(i, Seq.empty)
      ops = sa.sr ++ failSet
      if ops.nonEmpty
    } found(ops) = found.get(ops) match {
      case Some(prev) => prev.copy(saIndex = math.min(prev.saIndex, sa.index),
                                   witnesses = prev.witnesses + n)
      case None => Explanation(ops, ops.map(Explain.labelOf(query, _)), sa.index, n)
    }
    Explain.rank(query, found.values.toSeq)
  }
}

/** The schema alternatives given to [[Explain.solve]] do not start with
  * the original query (identity assignment, empty SR), which lane 0
  * stands for.
  */
final class OriginalSaException(msg: String) extends IllegalStateException(msg)

/** One kind of entry of a fail-set job: each row where ``when`` holds
  * counts towards ``lane`` under the ids of the ``flags`` that are false
  * on it (a null flag counts as false).
  */
final case class FailProbe(lane: Int, when: Column, flags: Seq[(Int, Column)])

object Explain {

  /** Full approach RP: explanations across all schema alternatives,
    * ranked by the paper's partial order (Def. 9) totalized as
    * (|Δ| asc, original SA first, pipeline position).
    */
  def rp(q: Question): Seq[Explanation] = solve(q, schemaAlts(q), withWn = false).rp

  /** RPnoSA: the variant without schema alternatives (paper §6.2). */
  def rpNoSA(q: Question): Seq[Explanation] = solve(q, Seq(originalSa(q)), withWn = false).rpNoSA

  /** All schema alternatives of ``q``; the original query is SA 0. */
  def schemaAlts(q: Question): Seq[SchemaAlternative] =
    SchemaAlts.enumerate(q.query, q.altGroups, q.tableSchemas)

  /** The original query as the only schema alternative. */
  def originalSa(q: Question): SchemaAlternative = SchemaAlternative(0, q.query, Set.empty, Map.empty)

  /** Alg. 1 over ``sas``, whose first SA must be the original query:
    * backtrace each SA, trace them together in one ``traceAll`` (with the
    * baselines' compatibility override, which only the ``compat`` columns
    * read), and read every SA's witness fail-sets with one Spark job per
    * shared plan. With ``withWn`` the job of the plan holding lane 0 also
    * counts the WN++ death probes of lane 0 ([[Baselines.probes]]).
    */
  private[repro] def solve(q: Question, sas: Seq[SchemaAlternative], withWn: Boolean): Solution = {
    if (!sas.headOption.exists(sa => sa.index == 0 && sa.isOriginal && sa.sr.isEmpty))
      throw new OriginalSaException(
        s"SA 0 must be the original query with an empty SR, got ${sas.headOption.map(_.assignment)}")
    val ts = q.tableSchemas
    val placements = sas.map(sa => Placement.backtrace(sa.query, q.nip, ts))
    val shared = Trace.traceAll(sas.map(_.query).zip(placements), q.tables, ts, q.baselineCompat)
    val probes =
      if (!withWn) Seq.empty
      else Baselines.probes(q, placements.head, shared.flatMap(_.lanes).collectFirst { case (0, t) => t }.get)
    val counted = shared.flatMap { s =>
      val extra = if (s.lanes.exists(_._1 == 0)) probes.map(_._2) else Seq.empty
      failSets(s.df, s.lanes.map(witnessProbe) ++ extra)
    }.toMap
    Solution(q.query, sas, counted.filter(_._1 >= 0), Baselines.deaths(q, probes, counted))
  }

  /** Distinct failure sets over consistent witness rows, with support
    * counts: exactly the set Alg. 4 enumerates (DESIGN.md §2).
    */
  def witnessFailSets(traced: Traced): Seq[(Set[Int], Long)] =
    witnessFailSets(SharedTrace(traced.df, Seq(0 -> traced))).getOrElse(0, Seq.empty)

  /** The fail-sets above for every lane of ``shared``, keyed by lane, in
    * one Spark job.
    */
  def witnessFailSets(shared: SharedTrace): Map[Int, Seq[(Set[Int], Long)]] =
    failSets(shared.df, shared.lanes.map(witnessProbe))

  /** A lane's witnesses: its consistent rows, failing its tracked operators. */
  private def witnessProbe(lane: (Int, Traced)): FailProbe = lane match {
    case (i, t) => FailProbe(i, col(t.consistent), t.tracked.map(op => op.opId -> col(op.retCol)))
  }

  /** The ``(failed ids, row count)`` histogram of every probe over ``df``,
    * keyed by lane, in one Spark job: each row yields one (lane, failed
    * ids) entry per probe that holds on it, and one ``groupBy`` counts
    * them. The rows are first filtered to those some probe holds on, so
    * that Catalyst can push the constraints below the joins.
    */
  private def failSets(df: DataFrame, probes: Seq[FailProbe]): Map[Int, Seq[(Set[Int], Long)]] = {
    val entries = probes.map { p =>
      val failed = p.flags.map { case (id, ok) => when(!coalesce(ok, lit(false)), lit(id)) }
      val failIds = if (failed.isEmpty) typedLit(Seq.empty[Int]) else array_compact(array(failed: _*))
      (coalesce(p.when, lit(false)), struct(lit(p.lane).as("lane"), failIds.as("failed")))
    }
    df.filter(entries.map(_._1).reduce(_ || _))
      .select(explode(array_compact(array(entries.map { case (c, e) => when(c, e) }: _*))).as("w"))
      .groupBy(col("w.lane"), col("w.failed")).count().collect().toSeq
      .groupBy(_.getInt(0))
      .map { case (i, rows) => i -> rows.map(r => (r.getSeq[Int](1).toSet, r.getLong(2))) }
  }

  /** Def. 9 ordering, totalized: fewer changed operators first; within a
    * size, explanations of the original schema alternative first (their
    * reparameterizations have no schema side effects); then by pipeline
    * (pre-order) position of the operators; labels as final tiebreak.
    * Reproduces every ranking the paper reports (gold-standard positions
    * in Table 7).
    */
  def rank(query: Op, es: Seq[Explanation]): Seq[Explanation] = {
    val pos = query.allOps.map(_.id).zipWithIndex.toMap
    es.sortBy { e =>
      val positions = e.ops.toSeq.map(pos.getOrElse(_, Int.MaxValue)).sorted
      (e.ops.size, if (e.saIndex == 0) 0 else 1,
        positions.map(p => f"$p%04d").mkString(","), e.toString)
    }
  }

  def labelOf(query: Op, opId: Int): String =
    query.find(opId).map(_.label).getOrElse(s"op$opId")
}
