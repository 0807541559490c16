package org.apache.spark.whynot

import org.apache.spark.SparkContext

/** Waits until every listener event posted so far has been delivered.
  * Lives under ``org.apache.spark`` because the listener bus is
  * package-private there.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
