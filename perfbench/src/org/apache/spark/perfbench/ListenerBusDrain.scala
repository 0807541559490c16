package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Waits until every listener event posted so far has been delivered, so
  * counts read after a traced call include that call's jobs and tasks.
  * Lives under ``org.apache.spark`` because the listener bus is
  * package-private there.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
