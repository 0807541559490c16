package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.{Window, WindowSpec}
import org.apache.spark.sql.functions._
import repro.nrab._
import repro.whynot.{NAny, NCmp, NConst, Nip}
import scala.collection.mutable

/** One tracked (reparameterizable, tuple-pruning) operator of the traced
  * pipeline with the physical column holding its retained flag.
  */
final case class TrackedOp(opId: Int, retCol: String)

/** The annotated relation produced by data tracing (paper §5.3) for ONE
  * schema alternative, kept at row grain end-to-end:
  *
  *  - ``cols``       algebra column name -> physical column
  *  - ``consistent`` cumulative revalidated compatibility (paper's
  *                   consistent flag: the row can still contribute to the
  *                   missing answer)
  *  - ``alive``      the row survives the *original* pipeline so far
  *                   (all retained flags true) — used to compute original
  *                   aggregate values and original join partners
  *  - ``tracked``    retained flags per pruning operator (selection,
  *                   inner flatten, join), pipeline (bottom-up) order
  *  - ``compat``     per source table: source-level compatibility without
  *                   revalidation (for the lineage-based baselines)
  *  - ``wnJoin``     per join: original-world partner-existence flags for
  *                   the left/right lineage (baseline path deaths)
  *
  * ``df`` may be shared with other schema alternatives (see
  * [[SharedTrace]]); the physical columns named here are this SA's.
  */
final case class Traced(
    df: DataFrame,
    cols: Map[String, String],
    consistent: String,
    alive: String,
    tracked: Seq[TrackedOp],
    compat: Map[String, String],
    wnJoin: Map[Int, (String, String)],
    tables: Set[String],
    virtual: Set[String] = Set.empty) {
  def resolve(name: String): Column =
    col(cols.getOrElse(name, throw new IllegalArgumentException(
      s"unresolvable attribute $name (have ${cols.keys.toSeq.sorted.mkString(", ")})")))
}

/** Schema alternatives traced in one plan (the paper's merged SA
  * relation, §6.3): ``df`` holds the rows they share and ``lanes`` one
  * annotated view per SA, keyed by the SA's position in the input of
  * [[Trace.traceAll]]. Every lane's ``df`` is ``df``.
  */
final case class SharedTrace(df: DataFrame, lanes: Seq[(Int, Traced)])

/** The tracer does not support operator ``opId`` of the query. For union
  * it is raised where the query enters the system ([[Question]]), before
  * any DataFrame is built.
  */
final class UntraceableOpException(val opId: Int, msg: String) extends UnsupportedOperationException(msg)

object Trace {

  /** Trace ``query`` (already substituted for one SA) over ``catalog``
    * with the constraints of ``placement``. ``compatOverride`` replaces
    * the t̄-based source compatibility predicate per table (used by the
    * lineage baselines, whose notion of compatibility can be coarser).
    */
  def trace(query: Op, catalog: Map[String, DataFrame], placement: Placement,
            tableSchemas: Map[String, Seq[String]],
            compatOverride: Map[String, Pred] = Map.empty): Traced =
    traceAll(Seq(query -> placement), catalog, tableSchemas, compatOverride).head.lanes.head._2

  /** Trace the schema alternatives ``sas`` (substituted query, placement)
    * together. SAs have the same operator tree and only three operators
    * change which rows exist: table access, relation flatten and join.
    * So SAs share one DataFrame until they explode different columns at a
    * relation flatten, or join different inputs or on different key
    * columns; there they split into groups. Everything else (flags,
    * derived and promoted columns, aggregate windows) is a per-SA column
    * on the shared rows, one per distinct expression.
    */
  def traceAll(sas: Seq[(Op, Placement)], catalog: Map[String, DataFrame],
               tableSchemas: Map[String, Seq[String]],
               compatOverride: Map[String, Pred] = Map.empty): Seq[SharedTrace] = {
    val queries = sas.map(_._1).toIndexedSeq
    check(queries)
    new Tracer(sas.map(_._2).toIndexedSeq, catalog, tableSchemas, compatOverride).go(queries)
  }

  /** Reject inputs that are not the aligned trees of one query. */
  private def check(queries: IndexedSeq[Op]): Unit = {
    require(queries.nonEmpty, "no query to trace")
    def shape(q: Op) = q.allOps.map(o => (o.id, o.getClass))
    require(queries.forall(q => shape(q) == shape(queries.head)),
      "schema alternatives must share the operator tree of the query")
  }

  private def bool(c: Column): Column = coalesce(c, lit(false))

  /** The new columns of one operator over one DataFrame: each distinct
    * expression becomes one physical column, however many SAs ask for it.
    */
  private final class NewCols(fresh: String => String) {
    private val exprs = mutable.LinkedHashMap.empty[Column, String]
    def apply(e: Column, hint: String): String = exprs.getOrElseUpdate(e, fresh(hint))
    def columns: Seq[Column] = exprs.toSeq.map { case (e, n) => e.as(n) }
    def addTo(df: DataFrame): DataFrame =
      if (exprs.isEmpty) df else df.select(col("*") +: columns: _*)
  }

  /** Groups of ``xs`` with equal ``key``, in order of first appearance. */
  private def groupInOrder[A, K](xs: Seq[A])(key: A => K): Seq[Seq[A]] = {
    val keys = xs.map(key)
    keys.distinct.map(k => xs.zip(keys).collect { case (x, `k`) => x })
  }

  private final class Tracer(placements: IndexedSeq[Placement], catalog: Map[String, DataFrame],
                             ts: Map[String, Seq[String]], compatOverride: Map[String, Pred]) {
    private var n = 0
    private def fresh(hint: String): String = { n += 1; s"__c${n}_$hint" }

    /** Trace one position of the aligned SA trees (``ops(i)`` is SA i's
      * operator there).
      */
    def go(ops: IndexedSeq[Op]): Seq[SharedTrace] = ops.head match {
      case TableAccess(_, name) => Seq(scan(name, ops.indices))
      case _: Join              => join(ops.map(_.asInstanceOf[Join]))
      case _: FlattenRel        => flattenRel(ops.map(_.asInstanceOf[FlattenRel]))
      case _ =>
        go(ops.map(_.children.head)).map(annotate(_)((i, t, c) => rowGrain(ops(i), placements(i), t, c)))
    }

    /** Add the per-SA columns ``f`` asks for with one select. */
    private def annotate(s: SharedTrace)(f: (Int, Traced, NewCols) => Traced): SharedTrace = {
      val c = new NewCols(fresh)
      val lanes = s.lanes.map { case (i, t) => i -> f(i, t, c) }
      val df = c.addTo(s.df)
      SharedTrace(df, lanes.map { case (i, t) => i -> t.copy(df = df) })
    }

    private def scan(name: String, lanes: Seq[Int]): SharedTrace = {
      val src = catalog(name)
      val colMap = src.columns.map(c => c -> fresh(c)).toMap
      // compat-override predicates may use dotted paths into structs
      def dotted(n: String): Column = {
        val parts = n.split('.'); parts.tail.foldLeft(src(parts.head))(_.getField(_))
      }
      val nc = new NewCols(fresh)
      val alive = nc(lit(true), "alive")
      val flags = lanes.map { i =>
        val cons = bool(Nip.toColumn(placements(i).nipFor(name), n => src(n)))
        val compat = compatOverride.get(name).map(p => bool(p.toColumn(dotted))).getOrElse(cons)
        (i, nc(cons, "consistent"), nc(compat, s"compat_$name"))
      }
      val df = src.select(src.columns.map(c => src(c).as(colMap(c))) ++ nc.columns: _*)
      SharedTrace(df, flags.map { case (i, cons, compat) =>
        i -> Traced(df, colMap, cons, alive, Seq.empty, Map(name -> compat), Map.empty, Set(name))
      })
    }

    /** Operators that keep the rows: one SA's new columns. */
    private def rowGrain(op: Op, placement: Placement, t: Traced, c: NewCols): Traced = op match {
      case Selection(id, pred, _) =>
        val ret = bool(pred.toColumn(t.resolve))
        t.copy(alive = c(col(t.alive) && ret, "alive"), tracked = t.tracked :+ TrackedOp(id, c(ret, s"ret_$id")))

      case Projection(id, cols, _) =>
        // nesting outputs have no physical column at row grain; they
        // stay virtual and pass through projections untouched
        val (virt, kept) = cols.partition(pc => pc.expr match {
          case Attr(a) => t.virtual.contains(a)
          case _       => false
        })
        val exprs = kept.map(pc => pc.out -> pc.expr.toColumn(t.resolve)).toMap
        val newMap = kept.map { pc =>
          pc.expr match {
            case Attr(a) => pc.out -> t.cols(a)
            case _       => pc.out -> c(exprs(pc.out), pc.out)
          }
        }.toMap
        val checks = placement.derivedChecks.getOrElse(id, Seq.empty).map { case (o, nip) => (exprs(o), nip) }
        t.copy(cols = newMap, consistent = withChecks(t.consistent, checks, c), virtual = virt.map(_.out).toSet)

      case Renaming(_, renames, _) =>
        t.copy(cols = renames.map { case (nu, old) => nu -> t.cols(old) }.toMap)

      case f @ FlattenTup(id, attr, _, _) =>
        val (promoted, cons) = promote(id, Flattens.aliases(f, ts), col(t.cols(attr)), placement, t, c)
        t.copy(cols = t.cols ++ promoted, consistent = cons)

      case Agg(id, groupBy, aggs, _) =>
        val keyCols = groupBy.map { case (_, a) => col(t.cols(a)) }
        val w = if (keyCols.isEmpty) Window.partitionBy(lit(1)) else Window.partitionBy(keyCols: _*)
        val outMap = groupBy.map { case (o, a) => o -> t.cols(a) }.toMap ++
          aggs.map(spec => spec.out -> c(origAggValue(spec, t, w), spec.out))
        // aggregate-constraint satisfiability under full relaxation
        val checks = placement.aggChecks.getOrElse(id, Seq.empty).map { case (out, prim) =>
          val spec = aggs.find(_.out == out).getOrElse(
            throw new IllegalArgumentException(s"agg constraint on unknown output $out"))
          val (lo, hi) = relaxedRange(spec, t, w)
          bool(satisfiable(prim, lo, hi))
        }
        val cons = if (checks.isEmpty) t.consistent
                   else c(checks.foldLeft(col(t.consistent))(_ && _), "consistent")
        t.copy(cols = outMap, consistent = cons)

      // Nesting keeps row grain in the tracer: the group members stay
      // visible and the element constraints were already pushed to them by
      // backtracing; the nested attribute becomes a *virtual* column that
      // downstream projections may pass through but no predicate may read.
      case NestRel(_, _, out, _) => t.copy(virtual = t.virtual + out)
      case NestTup(_, _, out, _) => t.copy(virtual = t.virtual + out)
      case Dedup(_, _)           => t
      case other => throw new UntraceableOpException(other.id, s"cannot trace ${other.label}")
    }

    /** Promote the fields ``aliases`` of the nested value ``from`` and
      * revalidate the flatten's checks on them: the promoted columns and
      * the new consistency flag.
      */
    private def promote(id: Int, aliases: Seq[(String, String)], from: Column, placement: Placement,
                        t: Traced, c: NewCols): (Map[String, String], String) = {
      val exprs = aliases.map { case (out, field) => out -> from.getField(field) }.toMap
      val checks = placement.flattenChecks.getOrElse(id, Seq.empty).map { case (o, nip) => (exprs(o), nip) }
      (exprs.map { case (out, e) => out -> c(e, out) }, withChecks(t.consistent, checks, c))
    }

    /** Relation flatten: SAs exploding the same physical column share
      * one explode.
      */
    private def flattenRel(ops: IndexedSeq[FlattenRel]): Seq[SharedTrace] =
      go(ops.map(_.in)).flatMap { s =>
        groupInOrder(s.lanes) { case (i, t) => t.cols(ops(i).attr) }.map { lanes =>
          val x = fresh("x")
          val arr = lanes.head match { case (i, t) => t.cols(ops(i).attr) }
          annotate(SharedTrace(s.df.select(col("*"), explode_outer(col(arr)).as(x)), lanes)) { (i, t, c) =>
            val f = ops(i)
            val (promoted, cons) = promote(f.id, Flattens.aliases(f, ts), col(x), placements(i), t, c)
            val t2 = t.copy(cols = (t.cols - f.attr) ++ promoted, consistent = cons)
            if (f.outer) t2
            else {
              val ret = col(x).isNotNull
              t2.copy(alive = c(col(t.alive) && ret, "alive"),
                      tracked = t.tracked :+ TrackedOp(f.id, c(ret, s"ret_${f.id}")))
            }
          }
        }
      }

    /** Join, generalized to a full outer join: SAs whose inputs are the
      * same shared DataFrames and whose key columns agree share one join.
      */
    private def join(ops: IndexedSeq[Join]): Seq[SharedTrace] = {
      val left = go(ops.map(_.left)); val right = go(ops.map(_.right))
      def sides(ss: Seq[SharedTrace]): Map[Int, (Int, Traced)] =
        ss.zipWithIndex.flatMap { case (s, k) => s.lanes.map { case (i, t) => i -> (k, t) } }.toMap
      val (ls, rs) = (sides(left), sides(right))
      def keys(i: Int) = ops(i).conds.map { case (a, b) => (ls(i)._2.cols(a), rs(i)._2.cols(b)) }
      val laneIds = left.flatMap(_.lanes.map(_._1))
      groupInOrder(laneIds)(i => (ls(i)._1, rs(i)._1, keys(i))).map { group =>
        val (pl, pr)     = (fresh("pL"), fresh("pR"))
        val (lrid, rrid) = (fresh("lrid"), fresh("rrid"))
        val ldf = left(ls(group.head)._1).df.select(col("*"), lit(1).as(pl), monotonically_increasing_id().as(lrid))
        val rdf = right(rs(group.head)._1).df.select(col("*"), lit(1).as(pr), monotonically_increasing_id().as(rrid))
        val conds = keys(group.head)
        val cond = conds.map { case (a, b) => ldf(a) === rdf(b) }.reduceOption(_ && _).getOrElse(lit(true))
        val df = ldf.join(rdf, cond, "full_outer")

        val hasL = col(pl).isNotNull; val hasR = col(pr).isNotNull
        val lKeyNull = conds.map { case (a, _) => col(a).isNull }.reduceOption(_ || _).getOrElse(lit(false))
        val rKeyNull = conds.map { case (_, b) => col(b).isNull }.reduceOption(_ || _).getOrElse(lit(false))
        // retained under the *original* join type, evaluated on the traced
        // (relaxed) inputs; rows padded because an upstream operator punched
        // a hole (null keys from padding) are not this join's fault.
        val baseRet = ops.head.kind match {
          case JoinKind.Inner => hasL && hasR
          case JoinKind.Left  => hasL
          case JoinKind.Right => hasR
          case JoinKind.Full  => lit(true)
        }
        val ret = baseRet || (hasL && lKeyNull) || (hasR && rKeyNull)
        val (wL, wR) = (Window.partitionBy(col(lrid)), Window.partitionBy(col(rrid)))

        annotate(SharedTrace(df, group.map(i => i -> ls(i)._2))) { (i, tl, c) =>
          val (j, p, tr) = (ops(i), placements(i), rs(i)._2)
          // original-world partner existence per lineage side (baselines)
          val wnL = (max(when(hasR && bool(col(tr.alive)), 1).otherwise(0)).over(wL) === 1) || lKeyNull
          val wnR = (max(when(hasL && bool(col(tl.alive)), 1).otherwise(0)).over(wR) === 1) || rKeyNull
          Traced(df, tl.cols ++ tr.cols,
            consistent = c(coalesce(col(tl.consistent), lit(!isConstrained(j.left, p))) &&
              coalesce(col(tr.consistent), lit(!isConstrained(j.right, p))), "consistent"),
            // original-world survival of a pairing: both sides alive and matched
            alive = c(bool(col(tl.alive)) && bool(col(tr.alive)) && hasL && hasR, "alive"),
            tracked = tl.tracked ++ tr.tracked :+ TrackedOp(j.id, c(ret, s"ret_${j.id}")),
            compat = tl.compat ++ tr.compat,
            wnJoin = tl.wnJoin ++ tr.wnJoin + (j.id -> (c(wnL, s"wnL_${j.id}"), c(wnR, s"wnR_${j.id}"))),
            tables = tl.tables ++ tr.tables)
        }
      }
    }
  }

  /** Conjoin primitive checks (null-safe) onto the consistency flag. */
  private def withChecks(consistent: String, checks: Seq[(Column, Nip)], c: NewCols): String =
    if (checks.isEmpty) consistent
    else c(col(consistent) && bool(checks.map { case (e, n) => primColumn(n, e) }.reduce(_ && _)), "consistent")

  private def primColumn(n: Nip, c: Column): Column = n match {
    case NAny        => lit(true)
    case NConst(v)   => c === lit(v)
    case NCmp(op, v) => op match {
      case "="  => c === lit(v);  case "!=" => c =!= lit(v)
      case ">"  => c > lit(v);    case ">=" => c >= lit(v)
      case "<"  => c < lit(v);    case "<=" => c <= lit(v)
    }
    case other => throw new IllegalArgumentException(s"non-primitive check: $other")
  }

  /** The aggregate's value in the ORIGINAL pipeline: aggregate over rows
    * that survive every original operator so far (alive).
    */
  private def origAggValue(spec: AggSpec, t: Traced, w: WindowSpec): Column = {
    def v = spec.expr.get.toColumn(t.resolve)
    val alive = col(t.alive)
    spec.func match {
      case "count" =>
        val unit = spec.expr.map(_ => when(alive && v.isNotNull, 1L).otherwise(0L))
          .getOrElse(when(alive, 1L).otherwise(0L))
        sum(unit).over(w)
      case "sum" => sum(when(alive, v)).over(w)
      case "avg" => avg(when(alive, v)).over(w)
      case "min" => min(when(alive, v)).over(w)
      case "max" => max(when(alive, v)).over(w)
      case "count_distinct" => size(collect_set(when(alive, v)).over(w)).cast("long")
      case other => throw new IllegalArgumentException(s"unknown aggregate: $other")
    }
  }

  /** [lo, hi] of the aggregate over arbitrary subsets of the group's
    * traced rows — the loose "full relaxation" bounds of §5.4.
    */
  private def relaxedRange(spec: AggSpec, t: Traced, w: WindowSpec): (Column, Column) = {
    def v = spec.expr.get.toColumn(t.resolve)
    spec.func match {
      case "count" =>
        val unit = spec.expr.map(_ => when(v.isNotNull, 1L).otherwise(0L))
          .getOrElse(lit(1L))
        (lit(0L), coalesce(sum(unit).over(w), lit(0L)))
      case "sum" =>
        (coalesce(sum(when(v < 0, v)).over(w), lit(0.0)),
         coalesce(sum(when(v > 0, v)).over(w), lit(0.0)))
      case "avg" => (min(v).over(w), max(v).over(w))
      case "min" => (min(v).over(w), max(v).over(w))
      case "max" => (min(v).over(w), max(v).over(w))
      case "count_distinct" => (lit(0L), size(collect_set(v).over(w)).cast("long"))
      case other => throw new IllegalArgumentException(s"unknown aggregate: $other")
    }
  }

  /** Constraint satisfiable within [lo, hi]? (Column-level twin of
    * [[repro.whynot.Nip.satisfiableInRange]].)
    */
  private def satisfiable(n: Nip, lo: Column, hi: Column): Column = n match {
    case NAny        => lit(true)
    case NConst(x)   => lo <= lit(x) && lit(x) <= hi
    case NCmp(op, x) => op match {
      case "="  => lo <= lit(x) && lit(x) <= hi
      case "!=" => !(lo === lit(x) && hi === lit(x))
      case ">"  => hi > lit(x);  case ">=" => hi >= lit(x)
      case "<"  => lo < lit(x);  case "<=" => lo <= lit(x)
    }
    case other => throw new IllegalArgumentException(s"non-primitive agg constraint: $other")
  }

  /** Does the subtree rooted at ``op`` carry any why-not constraint? */
  private def isConstrained(op: Op, placement: Placement): Boolean = {
    val ops = op.allOps
    val ids = ops.map(_.id).toSet
    val tables = ops.collect { case TableAccess(_, n) => n }.toSet
    tables.exists(placement.constrainedTables.contains) ||
      ids.exists(placement.flattenChecks.contains) ||
      ids.exists(placement.derivedChecks.contains) ||
      ids.exists(placement.aggChecks.contains)
  }
}
