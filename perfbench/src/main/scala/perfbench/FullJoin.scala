package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.mi.NumCol
import repro.sketch.{AggFn, Featurize, Sketch, TupSk}
import repro.stats.Rng
import repro.synth.CDUnif

/** The §V-D / Table II reference path against the sketch path. Six CDUnif
  * pairs (m=100) of N=10k rows, decomposed alternately KeyInd (key = row
  * number) and KeyDep (key = x), as `synth.Decompose` does. Operation i takes
  * pair i mod 6: `Featurize.augmentedJoin` (FIRST), collect and
  * `MI.estimate(MI.auto)` on all N points; then, twice, TUPSK n=256 left
  * and right, sketch-join, collect and estimate on the same pair. The sketch
  * path is cheap and Spark-bound, so the mean of the two is the operation's
  * `sketchMs`.
  *
  * N is 10k, not the paper's 20k, so that a timed run holds one operation
  * per pair: the O(N²) estimator still dominates the full path, and the
  * median covers KeyInd and KeyDep pairs alike.
  */
final class FullJoin(spark: SparkSession, seed: Long) extends Workload {
  import spark.implicits._

  val name          = "fulljoin"
  val n             = 256
  val rows          = 10000
  val m             = 100
  val nPairs        = 6
  val sketchRepeats = 2
  val maxErr        = 0.1 // nats, full-join estimate against CDUnif.trueMI
  private val conf  = Sketch.SketchConf(n)

  private final case class Pair(keyDep: Boolean, xs: Array[Double], ys: Array[Double]) {
    var train, cand: DataFrame = _
  }
  /** The untraced sketch path's (join size, MI) per pair, which the staged
    * path of a traced operation on the same pair must reproduce.
    */
  private val plainSketch = scala.collection.mutable.Map.empty[Int, (Int, Double)]

  private val pairs = (0 until nPairs).map { p =>
    val (xi, yd) = CDUnif.sample(new Rng(seed * 7919 + p), m, rows)
    Pair(p % 2 == 1, xi.map(_.toDouble), yd)
  }

  def params: Seq[(String, Any)] = Seq("n" -> n, "N" -> rows, "m" -> m, "pairs" -> nPairs)

  def prepare(): Unit = {
    val sc = spark.sparkContext
    pairs.foreach { p =>
      val keys = if (p.keyDep) p.xs.map(_.toLong) else Array.tabulate(rows)(_.toLong)
      p.train = sc.parallelize(keys.indices.map(i => (keys(i), p.ys(i)))).toDF("k", "y").cache()
      p.cand = sc.parallelize(keys.indices.map(i => (keys(i), p.xs(i)))).toDF("k", "x").cache()
    }
    // One job fills every cache: each branch of the union scans a cached table.
    val counted = pairs.flatMap(p => Seq(p.train, p.cand)).map(_.select("k")).reduce(_ union _).count()
    require(counted == 2L * rows * nPairs, s"counted $counted input rows")
  }

  def release(): Unit = pairs.foreach { p =>
    if (p.train != null) { p.train.unpersist(); p.cand.unpersist() }
  }

  def run(opIndex: Int, t: Tracer): OpResult = {
    val idx  = math.floorMod(opIndex, nPairs)
    val pair = pairs(idx)

    val t0 = System.nanoTime()
    val joined = t.span("sketch.augmented_join") {
      Featurize.augmentedJoin(pair.train, "k", "y", pair.cand, "k", "x", AggFn.First)
        .select("xn", "y").collect()
    }
    val complete = joined.forall(r => !r.isNullAt(0))
    val fullMi =
      if (complete) Workload.estimate(t, NumCol(joined.map(_.getDouble(0))), NumCol(joined.map(_.getDouble(1))))
      else Double.NaN
    val fullMs = Workload.ms(t0)

    val sketched = (1 to sketchRepeats).map { _ =>
      val t1 = System.nanoTime()
      val (size, mi) = t.span("sketch.pair")(sketchPath(t, pair))
      (Workload.ms(t1), size, mi)
    }

    val truth    = CDUnif.trueMI(m)
    val failures = Seq.newBuilder[String]
    if (joined.length != rows) failures += s"pair $idx: join has ${joined.length} rows, expected $rows"
    if (!complete) failures += s"pair $idx: join has rows without a feature"
    if (!(math.abs(fullMi - truth) <= maxErr))
      failures += f"pair $idx: full-join MI $fullMi%.4f vs true $truth%.4f"
    val (_, size, sketchMi) = sketched.head
    if (size < 10 || size > n || sketchMi.isNaN)
      failures += s"pair $idx: sketch join of $size rows gave MI $sketchMi"
    if (sketched.exists { case (_, s, mi) => s != size || !Workload.sameEstimate(mi, sketchMi) })
      failures += s"pair $idx: sketch path differs between repeats"
    val mismatches =
      if (!t.tracingNow) { plainSketch(idx) = (size, sketchMi); 0 }
      else plainSketch.get(idx).count { case (s, mi) => s != size || !Workload.sameEstimate(mi, sketchMi) }
    OpResult(fullMs, 1, 2L * rows, Stats.median(sketched.map(_._1)), failures.result(),
      stagedMismatches = mismatches)
  }

  /** TUPSK left and right, sketch-join, collect and estimate: (join size, MI). */
  private def sketchPath(t: Tracer, pair: Pair): (Int, Double) = {
    val traced = t.tracingNow
    val left = t.span("sketch.left") {
      if (traced) StagedTupSk.left(t, pair.train, "k", "y", n) else TupSk.sketchLeft(pair.train, "k", "y", conf)
    }
    val right = t.span("sketch.right") {
      if (traced) StagedTupSk.right(t, pair.cand, "k", "x", AggFn.First, n)
      else TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)
    }
    val s = t.span("sketch.join_collect")(Sketch.collectSample(Sketch.join(left, right)))
    if (traced) { left.unpersist(); right.unpersist() }
    (s.size, Workload.estimate(t, s.x, s.y))
  }
}
