package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.SparkContext
import org.apache.spark.perfbench.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeLike
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable

/** Spark work attributed to one span. */
final class SparkCounts {
  var jobs = 0L
  var tasks = 0L
  var shuffleWriteBytes = 0L
  var executorCpuNs = 0L
  var spillBytes = 0L
  var queries = 0L
  var exchanges = 0L
  var windows = 0L
  var planningMs = 0L

  def +=(o: SparkCounts): Unit = {
    jobs += o.jobs; tasks += o.tasks; shuffleWriteBytes += o.shuffleWriteBytes
    executorCpuNs += o.executorCpuNs; spillBytes += o.spillBytes; queries += o.queries
    exchanges += o.exchanges; windows += o.windows; planningMs += o.planningMs
  }
}

/** One timed call into a layer of the program. ``question`` is the
  * scenario being explained ("" for set-up spans).
  */
final case class Span(id: Int, name: String, parent: Int, question: String,
                      startNs: Long, endNs: Long, counts: SparkCounts) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder for the traced run.
  *
  * Before each call it sets the local property ``perfbench.span`` to the
  * span id; Spark copies local properties into every job the call
  * starts, so the listener below can attribute jobs and tasks to the
  * innermost span that caused them. Spans stay in memory;
  * the run writes them out once, at its end.
  */
final class Spans(sc: SparkContext) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0

  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val pendingQueries = new ConcurrentLinkedQueue[SparkCounts]()
  private val bySpan = new ConcurrentHashMap[Int, SparkCounts]()
  private def countsOf(span: Int): SparkCounts = bySpan.computeIfAbsent(span, _ => new SparkCounts)

  private val SpanKey = "perfbench.span"

  val sparkListener: SparkListener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = {
      val props = Option(e.properties)
      props.flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).foreach { span =>
        e.stageIds.foreach(stageSpan.put(_, span))
        val c = countsOf(span)
        c.synchronized { c.jobs += 1 }
      }
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      Option(stageSpan.get(e.stageId)).filter(_ => e.taskMetrics != null).foreach { span =>
        val m = e.taskMetrics
        val c = countsOf(span)
        c.synchronized {
          c.tasks += 1
          c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
          c.executorCpuNs += m.executorCpuTime
          c.spillBytes += m.diskBytesSpilled
        }
      }
  }

  /** Plan shape and Catalyst planning time of every executed query. Its
    * events carry no local properties, so each span start and end drains
    * the bus and hands the queries that completed meanwhile to the span
    * that was open (none outside spans).
    */
  val queryListener: QueryExecutionListener = new QueryExecutionListener {
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
      val c = new SparkCounts
      c.queries = 1
      c.exchanges = Spans.count(qe.executedPlan, _.isInstanceOf[ShuffleExchangeLike])
      c.windows = Spans.count(qe.executedPlan, _.isInstanceOf[WindowExec])
      c.planningMs = Seq("analysis", "optimization", "planning")
        .flatMap(qe.tracker.phases.get).map(_.durationMs).sum
      pendingQueries.add(c)
    }
    override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
  }

  /** The id the next span will get. */
  def nextSpanId: Int = nextId

  def apply[A](name: String, question: String)(f: => A): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    val before = drainQueries()
    if (parent >= 0) countsOf(parent) += before
    stack = id :: stack
    sc.setLocalProperty(SpanKey, id.toString)
    val start = System.nanoTime()
    try f
    finally {
      val end = System.nanoTime()
      stack = stack.tail
      sc.setLocalProperty(SpanKey, stack.headOption.map(_.toString).orNull)
      spans += Span(id, name, parent, question, start, end, drainQueries())
    }
  }

  private def drainQueries(): SparkCounts = {
    ListenerBusDrain(sc)
    val counts = new SparkCounts
    Iterator.continually(pendingQueries.poll()).takeWhile(_ != null).foreach(counts += _)
    counts
  }

  /** All spans recorded so far, in start order, with their Spark counts. */
  def finished: Seq[Span] = {
    ListenerBusDrain(sc)
    spans.sortBy(_.id).map { s =>
      Option(bySpan.get(s.id)).foreach(s.counts += _)
      bySpan.remove(s.id)
      s
    }.toSeq
  }
}

object Spans {
  /** Nodes of a physical plan matching ``p``, looking through adaptive
    * execution wrappers and query stages.
    */
  def count(plan: SparkPlan, p: SparkPlan => Boolean): Long = plan match {
    case a: AdaptiveSparkPlanExec => count(a.executedPlan, p)
    case s: QueryStageExec => count(s.plan, p)
    case n => (if (p(n)) 1L else 0L) + n.children.map(count(_, p)).sum
  }

  /** Self time: the span's duration minus the part of it its children cover. */
  def selfSeconds(span: Span, all: Seq[Span]): Double = {
    val kids = all.filter(_.parent == span.id).map(k => (k.startNs, k.endNs)).sortBy(_._1)
    var covered = 0L
    var reach = span.startNs
    kids.foreach { case (s, e) =>
      val from = math.max(s, reach)
      if (e > from) { covered += e - from; reach = e }
    }
    (span.endNs - span.startNs - covered) / 1e9
  }
}
