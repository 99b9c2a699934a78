package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.discovery.JoinRanker
import repro.discovery.JoinRanker.Candidate
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

  test("collectSample gives the same samples and estimates at 3 and 13 partitions") {
    val rng      = new Rng(12)
    val (xi, yd) = CDUnif.sample(rng, 40, 6000)
    val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyDep)
    val candStr  = pair.cand.select(col("k"), concat(lit("c"), col("x").cast("string")) as "x")
    val conf     = SketchConf(1024)
    // Each read plans the sketch-join afresh, at the session's partitions. The
    // index is partitioned by candidate, so the join's rows arrive in an order
    // that follows the shuffle partitions (two single-partition sketches would not).
    def samples(partitions: Int): Seq[(Seq[AnyRef], Double)] = {
      spark.conf.set("spark.sql.shuffle.partitions", partitions.toLong)
      val left = TupSk.sketchLeft(pair.train, "k", "y", conf)
      Seq(EstimatorKind.MixedKSG -> pair.cand, EstimatorKind.DCKSG -> candStr).map { case (kind, cand) =>
        val index = TupSk.index(Seq(AggFn.Mode, AggFn.Count).map(Featurize.Feature(cand, "k", "x", _)), conf)
        val s     = Sketch.collectSample(Sketch.join(left, index).filter(col("cand") === 0))
        assert(MI.auto(s.x, s.y) == kind && s.size > 500, s"$kind on ${s.size} rows")
        (s.x.anyValues ++ s.y.anyValues, MI.estimate(kind, s.x, s.y))
      }
    }
    val saved = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled").map(k => k -> spark.conf.get(k))
    val (at3, at13) =
      try {
        spark.conf.set("spark.sql.adaptive.enabled", false)
        (samples(3), samples(13))
      } finally saved.foreach { case (k, v) => spark.conf.set(k, v) }
    assert(at3.map(_._1) == at13.map(_._1), "the samples differ")
    assert(at3.zip(at13).forall { case (a, b) => java.lang.Double.compare(a._2, b._2) == 0 },
      s"${at3.map(_._2)} vs ${at13.map(_._2)}")
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

  test("a DOUBLE key 1.0 joins a LONG key 1, and 1.5 stays distinct") {
    val train      = spark.range(0, 200).select(col("id") as "k", (col("id") % 7).cast("double") as "y")
    val candLong   = spark.range(0, 200).select(col("id") as "k", col("id") * 0.5 as "x")
    val candDouble = candLong.select(col("k").cast("double") as "k", col("x"))
    val halves     = Seq(1.5, 2.5, 199.5, Double.NaN, Double.NegativeInfinity, 1e30).map((_, 9.0)).toDF("k", "x")
    val conf       = SketchConf(64)
    def sketchJoin(train: DataFrame, cand: DataFrame) =
      Sketch.join(TupSk.sketchLeft(train, "k", "y", conf),
        TupSk.sketchRight(cand, "k", "x", AggFn.First, conf))
        .select("hkey", "yNum", "xNum").collect().map(_.toSeq).toSet
    val expected = sketchJoin(train, candLong)
    assert(expected.nonEmpty)
    assert(sketchJoin(train, candDouble) == expected)
    for (t <- Seq("float", "decimal(10,2)"))
      assert(sketchJoin(train, candLong.select(col("k").cast(t) as "k", col("x"))) == expected, t)
    assert(sketchJoin(train.select(col("k").cast("double") as "k", col("y")), candLong) == expected)
    assert(sketchJoin(train, halves).isEmpty)

    // Both sides of the full join: every train key meets exactly one
    // candidate row, as in DuckDB's numeric comparison.
    val trainDouble = train.select(col("k").cast("double") as "k", col("y"))
    val cand        = candDouble.union(halves)
    val got = Featurize.augmentedJoin(trainDouble, "k", "y", cand, "k", "x", AggFn.Count)
      .filter(col("xn").isNotNull)
      .agg(count(lit(1)) as "n", sum("xn") as "s")
    assert(got.head().getLong(0) == 200)
    Oracle.assertEquivalent(got,
      """SELECT count(*) AS n, CAST(sum(a.cnt) AS DOUBLE) AS s
        |FROM t JOIN (SELECT CAST(k AS DOUBLE) AS k, count(*) AS cnt FROM c GROUP BY 1) a
        |  ON CAST(t.k AS DOUBLE) = a.k""".stripMargin,
      "t" -> trainDouble, "c" -> cand)
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
    val features = Seq(AggFn.Mode, AggFn.Avg, AggFn.Mode, AggFn.First).map(Featurize.Feature(cand, "k", "x", _))
    val jobs = jobsOf("build-index")(TupSk.index(features, conf))
    assert(jobs.isEmpty, s"TUPSK ran jobs $jobs while building the candidate index")
  }

  test("NaN and infinite values are rejected loudly (every scheme)") {
    def rejects(run: => Any): Unit = {
      val e = intercept[Exception](run)
      val msgs = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .flatMap(t => Option(t.getMessage))
      assert(msgs.exists(_.contains("column v holds NaN or an infinite value")), e.toString)
    }
    val conf  = SketchConf(8)
    val train = Seq(("a", 1.0), ("b", 2.0)).toDF("k", "y")
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val df = Seq(("a", 1.0), ("b", bad), ("b", 3.0)).toDF("k", "v")
      for (sk <- Sketcher.all) {
        rejects(sk.sketchLeft(df, "k", "v", conf).collect())
        rejects(sk.sketchRight(df, "k", "v", AggFn.Avg, conf).collect())
      }
      rejects(Featurize.augmentedJoin(train, "k", "y", df, "k", "v", AggFn.Avg).collect())
      rejects(Featurize.augmentedJoin(df, "k", "v", train, "k", "y", AggFn.Avg).collect())
      // The bad candidate shares its AGG, and so its aggregate, with a clean one.
      rejects(JoinRanker.rank(train, "k", "y",
        Seq(Candidate("clean", train, "k", "y", AggFn.Avg), Candidate("bad", df, "k", "v", AggFn.Avg)), conf))
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
