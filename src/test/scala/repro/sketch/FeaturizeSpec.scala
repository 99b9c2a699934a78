package repro.sketch

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class FeaturizeSpec extends SparkSpec {
  import spark.implicits._

  private def candNum = Seq(
    ("a", 1.0), ("b", 2.0), ("b", 2.0), ("b", 5.0), ("c", 0.0), ("c", 3.0), ("c", 3.0),
  ).toDF("k", "z")

  test("Example 2 from the paper: AVG featurization") {
    // T_cand[K_Z] = [a,b,b,b,c,c,c], Z = [1,2,2,5,0,3,3]; AVG => a->1, b->3, c->2
    val agg = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Avg)
      .select("k", "vNum").collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(agg == Map("a" -> 1.0, "b" -> 3.0, "c" -> 2.0))
  }

  test("Example 2 from the paper: MODE featurization") {
    val agg = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Mode)
      .select("k", "vNum").collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(agg == Map("a" -> 1.0, "b" -> 2.0, "c" -> 3.0))
  }

  test("Example 2 from the paper: COUNT featurization") {
    val agg = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Count)
      .select("k", "vNum").collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(agg == Map("a" -> 1.0, "b" -> 3.0, "c" -> 3.0))
  }

  test("Example 2 from the paper: the augmented column X") {
    // T_train[K_Y] = [a,a,b,c]; joining with AVG aggregate gives X = [1,1,3,2].
    val train  = Seq(("a", 10.0), ("a", 11.0), ("b", 12.0), ("c", 13.0)).toDF("k", "y")
    val joined = Featurize.augmentedJoin(train, "k", "y", candNum, "k", "z", AggFn.Avg)
    val xs     = joined.orderBy("ky", "y").select("xn").collect().map(_.getDouble(0)).toSeq
    assert(xs == Seq(1.0, 1.0, 3.0, 2.0))
  }

  test("AVG agrees with DuckDB") {
    val got = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Avg)
      .select(col("k"), col("vNum") as "x")
    Oracle.assertEquivalent(got,
      "SELECT k, AVG(CAST(z AS DOUBLE)) AS x FROM cand GROUP BY k", "cand" -> candNum)
  }

  test("COUNT agrees with DuckDB") {
    val got = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Count)
      .select(col("k"), col("vNum") as "x")
    Oracle.assertEquivalent(got,
      "SELECT k, CAST(COUNT(*) AS DOUBLE) AS x FROM cand GROUP BY k", "cand" -> candNum)
  }

  test("MAX and MIN agree with DuckDB") {
    val mx = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Max)
      .select(col("k"), col("vNum") as "x")
    Oracle.assertEquivalent(mx,
      "SELECT k, MAX(CAST(z AS DOUBLE)) AS x FROM cand GROUP BY k", "cand" -> candNum)
    val mn = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Min)
      .select(col("k"), col("vNum") as "x")
    Oracle.assertEquivalent(mn,
      "SELECT k, MIN(CAST(z AS DOUBLE)) AS x FROM cand GROUP BY k", "cand" -> candNum)
  }

  test("the paper's join-aggregation SQL agrees with DuckDB end-to-end") {
    val train  = Seq(("a", 10.0), ("a", 11.0), ("b", 12.0), ("c", 13.0), ("d", 14.0)).toDF("k", "y")
    val joined = Featurize.augmentedJoin(train, "k", "y", candNum, "k", "z", AggFn.Avg)
      .select(col("ky"), col("y").cast("double") as "y", col("xn") as "x")
    Oracle.assertEquivalent(joined,
      """SELECT t.k AS ky, CAST(t.y AS DOUBLE) AS y, a.x AS x
        |FROM train t LEFT JOIN (
        |  SELECT k, AVG(CAST(z AS DOUBLE)) AS x FROM cand GROUP BY k
        |) a ON t.k = a.k""".stripMargin,
      "train" -> train, "cand" -> candNum)
  }

  test("FIRST keeps the first value seen per key (string values)") {
    val c = Seq(("a", "u"), ("a", "v"), ("b", "w")).toDF("k", "z")
    val agg = Featurize.aggregateNorm(Sketch.normalize(c, "k", "z"), AggFn.First)
      .select("k", "vStr").collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(agg == Map("a" -> "u", "b" -> "w"))
  }

  test("MODE on string values with a clear majority") {
    val c = Seq(("a", "u"), ("a", "v"), ("a", "v"), ("b", "w")).toDF("k", "z")
    val agg = Featurize.aggregateNorm(Sketch.normalize(c, "k", "z"), AggFn.Mode)
      .select("k", "vStr").collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(agg == Map("a" -> "v", "b" -> "w"))
  }

  test("normalization drops NULL keys and values") {
    val c = Seq((null, "u"), ("a", null), ("a", "v")).toDF("k", "z")
    assert(Sketch.normalize(c, "k", "z").count() == 1)
  }

  test("AVG, MAX and MIN of a string column are rejected, not NULL features") {
    val candStr = Seq(("a", "u"), ("a", "v"), ("b", "w")).toDF("k", "z")
    val train   = Seq(("a", 1.0), ("b", 2.0)).toDF("k", "y")
    for (agg <- Seq(AggFn.Avg, AggFn.Max, AggFn.Min))
      intercept[IllegalArgumentException](
        TupSk.sketchRight(candStr, "k", "z", agg, Sketch.SketchConf(8)))
    intercept[IllegalArgumentException](
      Featurize.augmentedJoin(train, "k", "y", candStr, "k", "z", AggFn.Avg))
    // COUNT, FIRST and MODE do not read the value as a number.
    for (agg <- Seq(AggFn.Count, AggFn.First, AggFn.Mode))
      assert(Featurize.aggregate(candStr, "k", "z", agg).count() == 2)
  }

  test("aggregation output has unique keys") {
    val agg = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Avg)
    assert(agg.count() == agg.select("k").distinct().count())
  }
}
