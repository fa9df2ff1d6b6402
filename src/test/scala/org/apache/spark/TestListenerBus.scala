package org.apache.spark

/** Test access to the listener bus, which Spark keeps package-private:
  * a test that counts events with its own listener waits here until the
  * listener has seen every posted event.
  */
object TestListenerBus {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
