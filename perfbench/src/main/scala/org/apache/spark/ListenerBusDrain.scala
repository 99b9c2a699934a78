package org.apache.spark

/** Waits until every event already posted to the listener bus has been
  * delivered. The bus is asynchronous, so counters a listener keeps for a
  * finished action are only complete after this returns. The bus is
  * `private[spark]`, hence this one-line shim in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
