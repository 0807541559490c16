package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.apache.spark.whynot.ListenerBusDrain

/** Counts the Spark work a block of code issues. Listener events are
  * delivered asynchronously, so the bus is drained before a listener is
  * added and before it is read.
  */
object SparkCounts {

  /** ``body``'s result and the number of Dataset actions it ran. */
  def actions[A](spark: SparkSession)(body: => A): (A, Int) = {
    val n = new AtomicInteger
    val l = new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = n.incrementAndGet()
      override def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = n.incrementAndGet()
    }
    counting(spark)(spark.listenerManager.register(l), spark.listenerManager.unregister(l))(body, n)
  }

  /** ``body``'s result and the number of Spark jobs it started. */
  def jobs[A](spark: SparkSession)(body: => A): (A, Int) = {
    val n = new AtomicInteger
    val l = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = n.incrementAndGet()
    }
    counting(spark)(spark.sparkContext.addSparkListener(l), spark.sparkContext.removeSparkListener(l))(body, n)
  }

  private def counting[A](spark: SparkSession)(add: => Unit, remove: => Unit)(body: => A, n: AtomicInteger): (A, Int) = {
    ListenerBusDrain(spark.sparkContext)
    add
    try {
      val a = body
      ListenerBusDrain(spark.sparkContext)
      (a, n.get)
    } finally remove
  }
}
