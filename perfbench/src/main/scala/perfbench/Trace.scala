package perfbench

import scala.collection.mutable
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame

/** Spark work attributed to one job group (one span). */
final class SparkStats {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  /** (launch, finish) epoch-millisecond interval of every finished task. */
  val taskIntervals = mutable.ArrayBuffer.empty[(Long, Long)]

  def add(o: SparkStats): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks
    runMs += o.runMs; cpuNs += o.cpuNs; gcMs += o.gcMs
    shuffleWriteBytes += o.shuffleWriteBytes
    taskIntervals ++= o.taskIntervals
  }

  /** Milliseconds of the epoch interval [from, to] during which none of these
    * tasks ran: planning, code generation and scheduling on the driver.
    */
  def idleMs(from: Long, to: Long): Double = {
    var covered = 0L
    var reach   = from
    for ((s, e) <- taskIntervals.sortBy(_._1)) {
      val lo = math.max(s, reach)
      val hi = math.min(e, to)
      if (hi > lo) { covered += hi - lo; reach = hi }
    }
    math.max(0L, to - from - covered).toDouble
  }
}

/** Counts jobs, stages and tasks and sums executor time, GC time and shuffle
  * bytes per job group. Job groups are set by [[Tracer]], one per span.
  */
final class BenchListener extends SparkListener {
  private val byGroup    = mutable.HashMap.empty[String, SparkStats]
  private val stageGroup = mutable.HashMap.empty[Int, String]

  private def stats(group: String): SparkStats = byGroup.getOrElseUpdate(group, new SparkStats)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    stats(group).jobs += 1
    e.stageIds.foreach(stageGroup(_) = group)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageGroup.get(e.stageInfo.stageId).foreach(stats(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { group =>
      val s = stats(group)
      s.tasks += 1
      s.taskIntervals += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
      val m = e.taskMetrics
      if (m != null) {
        s.runMs += m.executorRunTime
        s.cpuNs += m.executorCpuTime
        s.gcMs += m.jvmGCTime
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Remove and return what was recorded for a group. */
  def take(group: String): SparkStats = synchronized {
    byGroup.remove(group).getOrElse(new SparkStats)
  }
}

/** One timed region. Spans of one operation share `op`; `parent` is -1 for
  * the operation's own span.
  */
final class Span(val id: Int, val parent: Int, val op: Int, val name: String,
                 val startEpochMs: Long, val startNs: Long) {
  var endNs: Long      = startNs
  var spark: SparkStats = new SparkStats
  val attrs            = mutable.LinkedHashMap.empty[String, Double]
  def durMs: Double    = (endNs - startNs) / 1e6
  def group: String    = s"perfbench-$id"
}

/** Records spans around calls into the program's layers and tags the Spark
  * jobs each span runs with its own job group. Outside a traced operation only
  * the operation span is kept, so untraced timing pays for one job-group
  * property and the listener's counters.
  */
final class Tracer(sc: SparkContext, listener: BenchListener) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var tracing           = false

  /** Run one operation as a root span; `traced` enables its child spans. */
  def op[A](opId: Int, name: String, traced: Boolean)(body: => A): (A, Span) = {
    require(stack.isEmpty, "operations do not nest")
    tracing = traced
    val s = open(opId, name)
    try (body, s)
    finally {
      close(s)
      tracing = false
      ListenerBusDrain(sc)
      spans.iterator.filter(_.op == opId).foreach(x => x.spark = listener.take(x.group))
    }
  }

  /** Time `body` as a child span of the current one, when tracing. */
  def span[A](name: String)(body: => A): A =
    if (!tracing) body
    else {
      val s = open(stack.head.op, name)
      try body finally close(s)
    }

  /** Attach a number to the innermost span (e.g. points estimated). */
  def note(key: String, value: Double): Unit =
    if (tracing) stack.head.attrs(key) = value

  def tracingNow: Boolean = tracing

  private def open(opId: Int, name: String): Span = {
    val parent = stack.headOption.map(_.id).getOrElse(-1)
    val s = new Span(spans.size, parent, opId, name, System.currentTimeMillis(), System.nanoTime())
    spans += s
    stack = s :: stack
    sc.setJobGroup(s.group, name, interruptOnCancel = false)
    s
  }

  private def close(s: Span): Unit = {
    s.endNs = System.nanoTime()
    stack = stack.tail
    stack.headOption match {
      case Some(p) => sc.setJobGroup(p.group, p.name, interruptOnCancel = false)
      case None    => sc.clearJobGroup()
    }
  }

  /** Spans of one operation, root first. */
  def ofOp(opId: Int): Seq[Span] = spans.filter(_.op == opId).toSeq

  /** Duration minus the part covered by direct children (children run one
    * after another, so their durations add).
    */
  def selfMs(s: Span): Double =
    s.durMs - spans.iterator.filter(c => c.parent == s.id).map(_.durMs).sum

  /** Spark work of a span and all its descendants. */
  def inclusiveSpark(s: Span): SparkStats = {
    val acc = new SparkStats
    def walk(x: Span): Unit = {
      acc.add(x.spark)
      spans.iterator.filter(_.parent == x.id).foreach(walk)
    }
    walk(s)
    acc
  }
}

object Tracer {
  /** Cache `df` and run it to completion with a `noop` write, so a lazy stage
    * is timed where it runs and the next stage reads its cached output.
    */
  def force(df: DataFrame): DataFrame = {
    df.persist()
    df.write.format("noop").mode("overwrite").save()
    df
  }
}
