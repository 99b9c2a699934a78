package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.mi.{EstimatorKind, MI}
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng
import repro.synth.{CDUnif, Decompose}

class SketchJoinSpec extends SparkSpec {
  import spark.implicits._

  test("sketch-join pairs are a subset of the full-join pairs (every scheme)") {
    val rng      = new Rng(1)
    val (xi, yd) = CDUnif.sample(rng, 30, 2000)
    val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyDep)
    pair.train.cache(); pair.cand.cache()
    val full = pair.train.join(pair.cand.groupBy("k").agg(first("x") as "x"), "k")
      .select("x", "y").collect().map(r => (r.getDouble(0), r.getDouble(1))).toSet
    for (sk <- Sketcher.all) {
      val conf   = SketchConf(128)
      val joined = Sketch.join(
        sk.sketchLeft(pair.train, "k", "y", conf),
        sk.sketchRight(pair.cand, "k", "x", AggFn.First, conf))
      val pairs = joined.select("xNum", "yNum").collect()
        .map(r => (r.getDouble(0), r.getDouble(1))).toSet
      assert(pairs.subsetOf(full), s"${sk.name}: sampled pairs not in the full join")
    }
    pair.train.unpersist(); pair.cand.unpersist()
  }

  test("sketch-join of materialized sketches agrees with DuckDB") {
    val left  = spark.range(0, 500).select(col("id") as "k", rand(2) as "y")
    val right = spark.range(0, 500).select(col("id") as "k", rand(3) as "x")
    val conf  = SketchConf(64)
    val l = TupSk.sketchLeft(left, "k", "y", conf).cache()
    val r = TupSk.sketchRight(right, "k", "x", AggFn.First, conf).cache()
    val got = Sketch.join(l, r).select(col("hkey").cast("string") as "hkey",
      col("yNum") as "y", col("xNum") as "x")
    Oracle.assertEquivalent(got,
      """SELECT l.hkey AS hkey, CAST(l.vNum AS DOUBLE) AS y, CAST(r.vNum AS DOUBLE) AS x
        |FROM l JOIN r ON l.hkey = r.hkey""".stripMargin,
      "l" -> l.select("hkey", "vNum"), "r" -> r.select("hkey", "vNum"))
    l.unpersist(); r.unpersist()
  }

  test("collectSample types follow the sketched columns") {
    val left  = Seq(("a", "cat"), ("b", "dog")).toDF("k", "y")
    val right = Seq(("a", 1.0), ("b", 2.0)).toDF("k", "x")
    val conf  = SketchConf(10)
    val s = Sketch.collectSample(Sketch.join(
      TupSk.sketchLeft(left, "k", "y", conf),
      TupSk.sketchRight(right, "k", "x", AggFn.Avg, conf)))
    assert(s.x.isNumeric && !s.y.isNumeric)
    assert(s.size == 2)
  }

  test("TUPSK estimates converge toward the full-join estimate as n grows (Q1)") {
    val rng      = new Rng(4)
    val (xi, yd) = CDUnif.sample(rng, 20, 6000)
    val xs       = xi.map(_.toDouble)
    val pair     = Decompose(spark, xs, yd, Decompose.KeyInd)
    pair.train.cache(); pair.cand.cache()
    val fullEst = MI.estimate(EstimatorKind.MixedKSG,
      repro.mi.NumCol(xs), repro.mi.NumCol(yd))
    val errs = Seq(64, 512, 4096).map { n =>
      val conf = SketchConf(n)
      val s = Sketch.collectSample(Sketch.join(
        TupSk.sketchLeft(pair.train, "k", "y", conf),
        TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)))
      math.abs(MI.estimate(EstimatorKind.MixedKSG, s.x, s.y) - fullEst)
    }
    assert(errs.last < 0.12, s"errs=$errs")
    assert(errs.last <= errs.head + 0.05, s"errs should shrink: $errs")
    pair.train.unpersist(); pair.cand.unpersist()
  }

  test("at n >= N the TUPSK sketch join recovers the entire join") {
    val rng      = new Rng(5)
    val (xi, yd) = CDUnif.sample(rng, 10, 800)
    val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyInd)
    val conf     = SketchConf(10000)
    val joined = Sketch.join(
      TupSk.sketchLeft(pair.train, "k", "y", conf),
      TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf))
    assert(joined.count() == 800)
  }

  /** Ids of the Spark jobs that `body` ran. The status tracker sees jobs
    * through the listener bus, in event order, so once a later marker job
    * shows, every job of `body` does too.
    */
  private def jobsOf(group: String)(body: => Unit): Seq[Int] = {
    val sc = spark.sparkContext
    def inGroup(g: String)(f: => Unit): Unit = {
      sc.setJobGroup(g, g)
      try f finally sc.clearJobGroup()
    }
    inGroup(group)(body)
    inGroup(s"$group-marker")(spark.range(1).count())
    val deadline = System.nanoTime() + 10L * 1000 * 1000 * 1000
    while (sc.statusTracker.getJobIdsForGroup(s"$group-marker").isEmpty) {
      assert(System.nanoTime() < deadline, "the marker job never showed")
      Thread.sleep(10)
    }
    sc.statusTracker.getJobIdsForGroup(group).toSeq
  }

  test("building every scheme's sketches runs no Spark job") {
    val train = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0), ("c", 4.0)).toDF("k", "y")
    val cand  = Seq(("a", 5.0), ("b", 6.0), ("b", 7.0)).toDF("k", "x")
    val conf  = SketchConf(2)
    for (sk <- Sketcher.all) {
      val jobs = jobsOf(s"build-${sk.name}") {
        sk.sketchLeft(train, "k", "y", conf)
        sk.sketchRight(cand, "k", "x", AggFn.Mode, conf)
      }
      assert(jobs.isEmpty, s"${sk.name} ran jobs $jobs while building its sketches")
    }
  }

  test("NaN and infinite values are rejected loudly (every scheme)") {
    def rejects(df: => DataFrame): Unit = {
      val e = intercept[Exception](df.collect())
      val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .flatMap(t => Option(t.getMessage))
      assert(msgs.exists(_.contains("column v holds NaN or an infinite value")), e.toString)
    }
    val conf  = SketchConf(8)
    val train = Seq(("a", 1.0), ("b", 2.0)).toDF("k", "y")
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val df = Seq(("a", 1.0), ("b", bad), ("b", 3.0)).toDF("k", "v")
      for (sk <- Sketcher.all) {
        rejects(sk.sketchLeft(df, "k", "v", conf))
        rejects(sk.sketchRight(df, "k", "v", AggFn.Avg, conf))
      }
      rejects(Featurize.augmentedJoin(train, "k", "y", df, "k", "v", AggFn.Avg))
    }
  }

  test("an empty table yields an empty sketch and an empty join") {
    val empty = Seq.empty[(String, Double)].toDF("k", "y")
    val right = Seq(("a", 1.0)).toDF("k", "x")
    val conf  = SketchConf(16)
    val j = Sketch.join(
      TupSk.sketchLeft(empty, "k", "y", conf),
      TupSk.sketchRight(right, "k", "x", AggFn.First, conf))
    assert(j.count() == 0)
    val s = Sketch.collectSample(j)
    assert(s.size == 0)
  }
}
