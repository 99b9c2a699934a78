package repro.exp

import repro.SparkSpec

/** Light-weight runs of the Table I / Table II experiment pipelines plus
  * unit checks of their aggregation logic. The full-scale runs live in
  * bench/ (one suite per paper table).
  */
class ExpSpec extends SparkSpec {

  private lazy val recsI: Seq[TableIExp.Rec] =
    TableIExp.run(spark, n = 128, triTrialsPerM = 1, cdTrials = 2, seed = 3,
      mValues = Seq(64))

  test("Table I mini-run produces records for every sketch/keyGen/estimator") {
    assert(recsI.map(_.sketch).distinct.sorted ==
      Seq("CSK", "INDSK", "LV2SK", "PRISK", "TUPSK"))
    assert(recsI.map(_.keyGen).distinct.sorted == Seq("KeyDep", "KeyInd"))
    assert(recsI.filter(_.dataset == "Trinomial").map(_.estimator).distinct.sorted ==
      Seq("DC-KSG", "MLE", "MixedKSG"))
    assert(recsI.filter(_.dataset == "CDUnif").map(_.estimator).distinct.sorted ==
      Seq("DC-KSG", "MixedKSG"))
  }

  test("Table I mini-run: true MI values are consistent within a trial") {
    recsI.groupBy(_.trial).values.foreach { rs =>
      assert(rs.map(_.trueMI).distinct.size == 1)
      assert(rs.head.trueMI >= 0)
    }
  }

  test("Table I mini-run: TUPSK join sizes equal n under KeyInd") {
    val tup = recsI.filter(r => r.sketch == "TUPSK" && r.keyGen == "KeyInd")
    assert(tup.nonEmpty && tup.forall(_.joinSize == 128), tup.map(_.joinSize).toString)
  }

  test("Table I mini-run: INDSK joins are much smaller under KeyInd") {
    val ind = recsI.filter(r => r.sketch == "INDSK" && r.keyGen == "KeyInd")
    assert(ind.forall(_.joinSize < 40), ind.map(_.joinSize).toString)
  }

  test("Table I summarize aggregates join sizes once per (trial, keyGen)") {
    val recs = Seq(
      TableIExp.Rec("D", 0, 16, "KeyInd", "TUPSK", "MLE", 1.0, 1.1, 100),
      TableIExp.Rec("D", 0, 16, "KeyInd", "TUPSK", "MixedKSG", 1.0, 0.9, 100),
      TableIExp.Rec("D", 0, 16, "KeyDep", "TUPSK", "MLE", 1.0, 1.5, 50),
    )
    val row = TableIExp.summarize(recs, n = 100).head
    assert(row.avgJoinSize == 75.0)
    assert(row.pct == 75.0)
    assert(math.abs(row.mse - ((0.01 + 0.01 + 0.25) / 3)) < 1e-12)
    assert(row.nEstimates == 3)
  }

  test("Table I summarize skips NaN estimates") {
    val recs = Seq(
      TableIExp.Rec("D", 0, 16, "KeyInd", "CSK", "MLE", 1.0, Double.NaN, 10),
      TableIExp.Rec("D", 0, 16, "KeyInd", "CSK", "MixedKSG", 1.0, 2.0, 10),
    )
    val row = TableIExp.summarize(recs, n = 100).head
    assert(row.nEstimates == 1 && row.mse == 1.0)
  }

  test("Table I format renders one line per summary row") {
    val rows = TableIExp.summarize(recsI, n = 128)
    val text = TableIExp.format(rows)
    assert(text.linesIterator.size == rows.size + 1)
    assert(text.contains("TUPSK"))
  }

  test("Table II mini-run produces filtered, summarizable records") {
    val recs = TableIIExp.run(spark, "NYC", nPairs = 6, n = 512, seed = 5)
    assert(recs.map(_.sketch).distinct.sorted == Seq("LV2SK", "PRISK", "TUPSK"))
    assert(recs.forall(r => r.fullJoinSize >= 0))
    val rows = TableIIExp.summarize(recs)
    assert(rows.nonEmpty)
    rows.foreach { r =>
      assert(r.nPairs <= 6)
      if (!r.mse.isNaN) assert(r.mse >= 0)
    }
    assert(TableIIExp.format(rows).contains("NYC"))
  }

  test("Table II summarize applies the sketch-join-size > 100 filter") {
    val recs = Seq(
      TableIIExp.Rec("NYC", 0, "TUPSK", "MLE", 1000, 1.0, 99, 5.0),  // filtered
      TableIIExp.Rec("NYC", 1, "TUPSK", "MLE", 1000, 1.0, 101, 1.2),
      TableIIExp.Rec("NYC", 2, "TUPSK", "MLE", 1000, Double.NaN, 500, 1.2), // filtered
      TableIIExp.Rec("NYC", 3, "TUPSK", "MLE", 1000, 2.0, 300, 2.4),
    )
    val row = TableIIExp.summarize(recs).head
    assert(row.nPairs == 2)
    assert(row.avgJoinSize == (101 + 300) / 2.0)
    assert(math.abs(row.mse - (0.04 + 0.16) / 2) < 1e-12)
  }

  test("Table II reference estimates MI on every row of a full join above 5,000 rows") {
    import org.apache.spark.sql.functions.col
    import repro.mi.{EstimatorKind, MI, NumCol}
    import repro.sketch.{AggFn, Featurize}
    import repro.synth.OpenDataGen
    val spec = OpenDataGen.specs("WBF", 28, 11)(27)
    assert(spec.xNumeric && spec.yNumeric)
    val pair = OpenDataGen.generate(spark, spec)
    pair.train.cache(); pair.cand.cache()
    try {
      val (size, mi) = TableIIExp.fullJoinMI(pair, AggFn.Avg, EstimatorKind.MixedKSG)
      import Ordering.Double.TotalOrdering
      // In fullJoinMI's (x, y) order: MixedKSG's sum of terms rounds by order.
      val rows = Featurize.augmentedJoin(pair.train, "k", "y", pair.cand, "k", "x", AggFn.Avg)
        .filter(col("xn").isNotNull).select("xn", "y").collect()
        .sortBy(r => (r.getDouble(0), r.getDouble(1)))
      val all = MI.estimate(EstimatorKind.MixedKSG,
        NumCol(rows.map(_.getDouble(0))), NumCol(rows.map(_.getDouble(1))))
      assert(size == 5195 && rows.length == 5195)
      assert(java.lang.Double.compare(mi, all) == 0, s"reference $mi, all rows $all")
    } finally { pair.train.unpersist(); pair.cand.unpersist() }
  }

  test("Table II's full-join reference does not depend on the order in which the join's rows arrive") {
    import repro.mi.EstimatorKind
    import repro.sketch.AggFn
    import repro.synth.OpenDataGen
    val pair = OpenDataGen.generate(spark, OpenDataGen.specs("WBF", 28, 11)(27))
    pair.train.cache(); pair.cand.cache()
    // Without adaptive execution, which would coalesce these small shuffles,
    // the shuffle partition count sets the order in which the join's rows arrive.
    def reference(partitions: Int): (Int, Double) = {
      val conf = Map("spark.sql.shuffle.partitions" -> partitions.toString, "spark.sql.adaptive.enabled" -> "false")
      val prev = conf.keys.map(k => k -> spark.conf.get(k))
      conf.foreach { case (k, v) => spark.conf.set(k, v) }
      try TableIIExp.fullJoinMI(pair, AggFn.First, EstimatorKind.MixedKSG)
      finally prev.foreach { case (k, v) => spark.conf.set(k, v) }
    }
    try {
      val refs = Seq(8, 3, 13).map(reference)
      assert(refs.map(_._1).distinct.size == 1, refs.mkString(", "))
      assert(refs.map(r => java.lang.Double.doubleToRawLongBits(r._2)).distinct.size == 1, refs.mkString(", "))
    } finally { pair.train.unpersist(); pair.cand.unpersist() }
  }

  test("the experiments leave the session's shuffle partitions as they found them") {
    val key    = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    spark.conf.set(key, "13")
    try {
      TableIExp.run(spark, n = 32, triTrialsPerM = 1, cdTrials = 1, seed = 3, mValues = Seq(16))
      assert(spark.conf.get(key) == "13", "after Table I")
      TableIIExp.run(spark, "NYC", nPairs = 1, n = 64, seed = 5)
      assert(spark.conf.get(key) == "13", "after Table II")
      PerfExp.run(spark, sizes = Seq(500), n = 32)
      assert(spark.conf.get(key) == "13", "after the perf exemplars")
    } finally spark.conf.set(key, before)
  }

  test("estimator dispatch for Table II follows the paper") {
    import repro.mi.EstimatorKind._
    import repro.mi.MI
    assert(MI.auto(xNumeric = false, yNumeric = false) == MLE)
    assert(MI.auto(xNumeric = true, yNumeric = true) == MixedKSG)
    assert(MI.auto(xNumeric = true, yNumeric = false) == DCKSG)
    assert(MI.auto(xNumeric = false, yNumeric = true) == DCKSG)
  }
}
