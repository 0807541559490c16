package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.nrab._
import repro.whynot.NTup

/** A why-not question Φ = ⟨Q, D, t⟩ (paper Def. 5) plus the algorithm's
  * inputs: the attribute-alternative groups (paper §5.2 assumes these are
  * provided) and, for the lineage baselines, which tables' tuples to
  * trace (None = tables constrained by the backtraced NIP, or all tables
  * when none is constrained).
  */
final case class Question(
    query: Op,
    tables: Map[String, DataFrame],
    nip: NTup,
    altGroups: Seq[AltGroup] = Seq.empty,
    wnTraceTables: Option[Seq[String]] = None,
    baselineCompat: Map[String, Pred] = Map.empty) {
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

object Explain {

  /** Full approach RP: explanations across all schema alternatives,
    * ranked by the paper's partial order (Def. 9) totalized as
    * (|Δ| asc, original SA first, pipeline position).
    */
  def rp(q: Question): Seq[Explanation] = {
    val ts = q.tableSchemas
    run(q, SchemaAlts.enumerate(q.query, q.altGroups, ts), ts)
  }

  /** RPnoSA: the variant without schema alternatives (paper §6.2). */
  def rpNoSA(q: Question): Seq[Explanation] = {
    val ts = q.tableSchemas
    run(q, Seq(SchemaAlternative(0, q.query, Set.empty, Map.empty)), ts)
  }

  /** Alg. 1 over ``sas``: backtrace each SA, trace them together, and
    * read every SA's witness fail-sets with one Spark job per shared plan.
    */
  private def run(q: Question, sas: Seq[SchemaAlternative],
                  ts: Map[String, Seq[String]]): Seq[Explanation] = {
    val placed = sas.map(sa => sa.query -> Placement.backtrace(sa.query, q.nip, ts))
    val found = scala.collection.mutable.Map.empty[Set[Int], Explanation]
    for {
      shared <- Trace.traceAll(placed, q.tables, ts)
      (i, failSets) <- witnessFailSets(shared)
      sa = sas(i)
      (failSet, n) <- failSets
      ops = sa.sr ++ failSet
      if ops.nonEmpty
    } found(ops) = found.get(ops) match {
      case Some(prev) => prev.copy(saIndex = math.min(prev.saIndex, sa.index),
                                   witnesses = prev.witnesses + n)
      case None => Explanation(ops, ops.map(labelOf(q.query, _)), sa.index, n)
    }
    rank(q.query, found.values.toSeq)
  }

  /** Distinct failure sets over consistent witness rows, with support
    * counts: exactly the set Alg. 4 enumerates (DESIGN.md §2).
    */
  def witnessFailSets(traced: Traced): Seq[(Set[Int], Long)] =
    witnessFailSets(SharedTrace(traced.df, Seq(0 -> traced))).getOrElse(0, Seq.empty)

  /** The fail-sets above for every lane of ``shared``, keyed by lane, in
    * one Spark job: each row yields one (lane, failed operator ids) entry
    * per lane it is consistent in, and one ``groupBy`` counts them. The
    * rows are first filtered to those consistent in some lane, so that
    * Catalyst can push the consistency constraints below the joins.
    */
  def witnessFailSets(shared: SharedTrace): Map[Int, Seq[(Set[Int], Long)]] = {
    val entries = shared.lanes.map { case (i, t) =>
      val failed = t.tracked.map(op => when(!coalesce(col(op.retCol), lit(false)), lit(op.opId)))
      val failIds = if (failed.isEmpty) typedLit(Seq.empty[Int]) else array_compact(array(failed: _*))
      (coalesce(col(t.consistent), lit(false)), struct(lit(i).as("lane"), failIds.as("failed")))
    }
    shared.df.filter(entries.map(_._1).reduce(_ || _))
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
