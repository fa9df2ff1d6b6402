package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * the traced benchmark reads job metrics only after every event posted
  * so far has been delivered.
  */
object PerfbenchBus {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
