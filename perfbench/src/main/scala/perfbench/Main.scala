package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Runs one workload in a closed loop for a fixed time and prints one JSON
  * result line. See perfbench/README.md for the workloads and metrics.
  *
  * Usage: Main --workload W --seed N --seconds S --trace 0|1 --work DIR
  *        --out DIR [--sha SHA] [--source-hash H]
  */
object Main {

  /** Times input preparation is repeated in set-up; `setup_s` takes the median. */
  val PrepareRepeats    = 3
  /** Discarded operations run for at least this long and this many times, so
    * the JIT has settled before timing. With the C1-only JVM that run.py
    * starts, the first operation takes about twice as long as a settled one
    * and the second is settled.
    */
  val WarmupSeconds     = 5
  val WarmupOps         = 2
  val ShufflePartitions = 8

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        work: Path, out: Path, sha: String, sourceHash: String)

  /** One measured operation. */
  final case class Rec(result: OpResult, span: Span, traced: Boolean, pair: Int)

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      Paths.get(need("work")), Paths.get(need("out")),
      kv.getOrElse("sha", "unknown"), kv.getOrElse("source-hash", "unknown"))
    val jvmStart = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark    = session(a)
    val ok =
      try run(a, spark, jvmStart)
      catch { case NonFatal(e) => e.printStackTrace(); false }
      finally spark.stop()
    if (!ok) sys.exit(1)
  }

  private def session(a: Args): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${a.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", a.work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", a.work.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Set up, measure, check and report; false if nothing could be measured. */
  private def run(a: Args, spark: SparkSession, jvmStart: Long): Boolean = {
    val sc       = spark.sparkContext
    val listener = new BenchListener
    sc.addSparkListener(listener)
    val tracer   = new Tracer(sc, listener)
    val sessionS = (System.currentTimeMillis() - jvmStart) / 1e3

    // ---- set-up: inputs (repeated, median), discarded warm-up ops ----
    var t0        = System.nanoTime()
    val wl        = Workload(a.workload, spark, a.seed)
    val generateS = secondsSince(t0)

    var attempted = 0
    var failed    = 0
    /** Run and check one operation; a throw or a failed check counts as failed. */
    def attempt(opId: Int, pair: Int, traced: Boolean): Option[Rec] = {
      attempted += 1
      val rec =
        try {
          val (r, s) = tracer.op(opId, a.workload, traced)(wl.run(pair, tracer))
          Some(Rec(r, s, traced, pair))
        } catch {
          case NonFatal(e) =>
            e.printStackTrace()
            None
        }
      val failures = rec.fold(Seq(s"operation $opId threw"))(_.result.failures)
      if (failures.nonEmpty) {
        failed += 1
        failures.foreach(f => System.err.println(s"[perfbench] check failed: $f"))
      }
      rec
    }

    val prepareS = (1 to PrepareRepeats).map { r =>
      if (r > 1) wl.release()
      t0 = System.nanoTime(); wl.prepare(); secondsSince(t0)
    }
    t0 = System.nanoTime()
    var w = 0
    while (w < WarmupOps || secondsSince(t0) < WarmupSeconds) {
      attempt(-1 - w, w, traced = false)
      w += 1
    }
    val warmupS = secondsSince(t0)
    val setupS = sessionS + generateS + Stats.median(prepareS) + warmupS

    // ---- closed loop: one caller, operations back to back ----
    // A traced run alternates untraced and traced operations on the same
    // input, so their difference is the tracing overhead.
    val recs     = mutable.ArrayBuffer.empty[Rec]
    val deadline = System.nanoTime() + a.seconds * 1000000000L
    def enough = recs.exists(!_.traced) && (!a.trace || recs.exists(_.traced))
    var k = 0
    while (System.nanoTime() < deadline || !enough) {
      val traced = a.trace && k % 2 == 1
      recs ++= attempt(k, if (a.trace) k / 2 else k, traced)
      if (!enough && k >= 8 && System.nanoTime() > deadline) return false // every op throws
      k += 1
    }
    wl.release()

    val plain   = recs.filter(!_.traced).toSeq
    val metrics =
      if (a.trace) perLayer(tracer, recs.toSeq)
      else endToEnd(plain, setupS)
    val result = Json.obj(
      "correct"   -> (failed == 0),
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> Json.obj(metrics.map { case (n, v, u) => n -> Json.obj("value" -> v, "unit" -> u) }: _*),
    )
    val meta = Json.obj(
      (Seq[(String, Any)](
        "workload" -> a.workload, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace,
        "git_sha" -> a.sha, "source_sha256" -> a.sourceHash,
        "nproc" -> Runtime.getRuntime.availableProcessors(), "master" -> sc.master,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
        "spark_version" -> spark.version, "shuffle_partitions" -> ShufflePartitions,
        "java_version" -> System.getProperty("java.version"),
        "jvm_flags" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")),
        "session_s" -> sessionS, "generate_s" -> generateS, "prepare_s" -> prepareS,
        "warmup_s" -> warmupS, "warmup_ops" -> w,
      ) ++ wl.params): _*)

    headline(a.workload, plain).foreach { case (n, v, u, c) =>
      println(f"[perfbench] $n%-28s $v%14.3f $u (median of $c)")
    }
    metrics.foreach { case (n, v, u) => println(f"[perfbench] $n%-28s $v%14.3f $u") }
    val metaLine = Json.obj("meta" -> meta)
    println(metaLine)
    writeOut(a, meta, result, tracer, recs.toSeq)
    println(result)
    true
  }

  /** Each workload's figures under their own names, printed beside the generic metrics. */
  private def headline(workload: String, ops: Seq[Rec]): Seq[(String, Double, String, Int)] = {
    def med(f: Rec => Double) = Stats.median(ops.map(f))
    val c = ops.size
    workload match {
      case "discover" => Seq(
        ("discover.ms_per_candidate", med(r => r.result.primaryMs / r.result.items), "ms", c),
        ("discover.jobs_per_candidate", med(r => r.span.spark.jobs.toDouble / r.result.items), "count", c))
      case "fulljoin" => Seq(
        ("fulljoin.full_mi_s", med(_.result.primaryMs) / 1e3, "s", c),
        ("fulljoin.sketch_mi_ms", med(_.result.sketchMs), "ms", c))
      case _ => Nil
    }
  }

  private def endToEnd(ops: Seq[Rec], setupS: Double): Seq[(String, Double, String)] = {
    def med(f: Rec => Double) = Stats.median(ops.map(f))
    Seq(
      ("setup_s", setupS, "s"),
      ("ms_per_item", med(r => r.result.primaryMs / r.result.items), "ms"),
      ("rows_per_s", med(r => r.result.sketchRows / (r.result.sketchMs / 1e3)), "rows/s"),
      ("jobs_per_item", med(r => r.span.spark.jobs.toDouble / r.result.items), "count"),
    )
  }

  private def perLayer(t: Tracer, recs: Seq[Rec]): Seq[(String, Double, String)] = {
    val plain  = recs.filter(!_.traced)
    val traced = recs.filter(_.traced)
    val tracedSpans = traced.flatMap(r => t.ofOp(r.span.op).tail)

    def durations(name: String) = tracedSpans.filter(_.name == name).map(_.durMs)
    def spanMs(name: String)    = Stats.median(durations(name))
    def spanP90(name: String)   = Stats.quantile(durations(name), 0.9)
    /** Per traced operation, summed over its spans matching `p`; median over operations. */
    def perOp(p: Span => Boolean)(f: Span => Double) =
      Stats.median(traced.map(r => t.ofOp(r.span.op).filter(p).map(f).sum))
    def extra(key: String) = Stats.median(recs.flatMap(_.result.extras.get(key)))
    def plainSpark(f: (SparkStats, Span) => Double) = Stats.median(plain.map(r => f(r.span.spark, r.span)))

    val overhead = Stats.median(
      traced.flatMap(tr => plain.find(_.pair == tr.pair).map(p => tr.span.durMs - p.span.durMs)))
    System.gc()
    val rt     = Runtime.getRuntime
    val heapMb = (rt.totalMemory() - rt.freeMemory()) / 1048576.0

    Seq(
      ("discovery.rank_ms", extra("discovery.rank_ms"), "ms"),
      ("discovery.join_rows_per_n", extra("discovery.join_rows_per_n"), "ratio"),
      ("discovery.nan_candidates", extra("discovery.nan_candidates"), "count"),
      ("sketch.left_ms_p50", spanMs("sketch.left"), "ms"),
      ("sketch.left_ms_p90", spanP90("sketch.left"), "ms"),
      ("sketch.right_ms_p50", spanMs("sketch.right"), "ms"),
      ("sketch.right_ms_p90", spanP90("sketch.right"), "ms"),
      ("sketch.join_collect_ms_p50", spanMs("sketch.join_collect"), "ms"),
      ("sketch.join_collect_ms_p90", spanP90("sketch.join_collect"), "ms"),
      ("sketch.normalize_ms", spanMs("sketch.normalize"), "ms"),
      ("sketch.occurrence_ms", spanMs("sketch.occurrence"), "ms"),
      ("core.hash_ms", spanMs("core.hash"), "ms"),
      ("sketch.topn_ms", spanMs("sketch.topn"), "ms"),
      ("sketch.aggregate_ms", spanMs("sketch.aggregate"), "ms"),
      ("sketch.augmented_join_ms", spanMs("sketch.augmented_join"), "ms"),
      ("sketch.pair_ms", spanMs("sketch.pair"), "ms"),
      ("mi.mixedksg_ms", perOp(_.name == "mi.mixedksg")(_.durMs), "ms"),
      ("mi.dcksg_ms", perOp(_.name == "mi.dcksg")(_.durMs), "ms"),
      ("mi.points", perOp(_.name.startsWith("mi."))(_.attrs.getOrElse("points", 0.0)), "count"),
      ("spark.jobs", plainSpark((s, _) => s.jobs.toDouble), "count"),
      ("spark.stages", plainSpark((s, _) => s.stages.toDouble), "count"),
      ("spark.tasks", plainSpark((s, _) => s.tasks.toDouble), "count"),
      ("spark.task_run_ms", plainSpark((s, _) => s.runMs.toDouble), "ms"),
      ("spark.task_cpu_ms", plainSpark((s, _) => s.cpuNs / 1e6), "ms"),
      ("spark.gc_ms", plainSpark((s, _) => s.gcMs.toDouble), "ms"),
      ("spark.shuffle_write_bytes", plainSpark((s, _) => s.shuffleWriteBytes.toDouble), "bytes"),
      ("spark.driver_ms", plainSpark((s, sp) => s.idleMs(sp.startEpochMs, sp.startEpochMs + sp.durMs.toLong)), "ms"),
      ("jvm.heap_after_gc_mb", heapMb, "MB"),
      ("trace.overhead_ms", overhead, "ms"),
      ("trace.staged_mismatches", traced.map(_.result.stagedMismatches).sum.toDouble, "count"),
    )
  }

  /** Result, parameters, per-operation figures and (traced) every span go to
    * `<out>/BENCH_<workload>_trace<t>_seed<n>.json`.
    */
  private def writeOut(a: Args, meta: Json, result: Json, t: Tracer, recs: Seq[Rec]): Unit = {
    val ops = recs.map { r =>
      val s = t.inclusiveSpark(r.span)
      Json.obj("op" -> r.span.op, "traced" -> r.traced, "wall_ms" -> r.span.durMs,
        "primary_ms" -> r.result.primaryMs, "sketch_ms" -> r.result.sketchMs,
        "items" -> r.result.items, "jobs" -> s.jobs, "failures" -> r.result.failures)
    }
    val spans = if (!a.trace) Nil else t.spans.toSeq.filter(_.op >= 0).map { s =>
      Json.obj("id" -> s.id, "parent" -> s.parent, "op" -> s.op, "name" -> s.name,
        "start_epoch_ms" -> s.startEpochMs, "dur_ms" -> s.durMs, "self_ms" -> t.selfMs(s),
        "jobs" -> s.spark.jobs, "stages" -> s.spark.stages, "tasks" -> s.spark.tasks,
        "task_run_ms" -> s.spark.runMs, "task_cpu_ms" -> s.spark.cpuNs / 1e6,
        "gc_ms" -> s.spark.gcMs, "shuffle_write_bytes" -> s.spark.shuffleWriteBytes,
        "driver_ms" -> s.spark.idleMs(s.startEpochMs, s.startEpochMs + s.durMs.toLong),
        "attrs" -> Json.obj(s.attrs.toSeq: _*))
    }
    val doc = Json.obj("meta" -> meta, "result" -> result, "ops" -> ops, "spans" -> spans)
    Files.createDirectories(a.out)
    val f = a.out.resolve(s"BENCH_${a.workload}_trace${if (a.trace) 1 else 0}_seed${a.seed}.json")
    Files.write(f, doc.toString.getBytes(StandardCharsets.UTF_8))
  }
}

object Stats {
  /** Linear-interpolated quantile; 0 for no values. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s   = xs.sorted
      val pos = q * (s.size - 1)
      val lo  = pos.toInt
      val hi  = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}

/** Minimal JSON writer for the result line and the output file. */
final class Json private (val text: String) { override def toString: String = text }

object Json {
  def obj(fields: (String, Any)*): Json =
    new Json(fields.map { case (k, v) => quote(k) + ":" + value(v) }.mkString("{", ",", "}"))

  private def value(v: Any): String = v match {
    case j: Json                  => j.text
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double                => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float                 => value(f.toDouble)
    case n @ (_: Int | _: Long)   => n.toString
    case xs: Iterable[_]          => xs.map(value).mkString("[", ",", "]")
    case other                    => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
