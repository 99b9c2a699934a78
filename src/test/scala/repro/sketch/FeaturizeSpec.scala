package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.{Oracle, SparkSpec}
import repro.discovery.JoinRanker
import repro.discovery.JoinRanker.Candidate

/** The MODE `Featurize.aggregateNorm` used before it became one `GROUP BY k`:
  * count every (k, value) pair, then keep each key's most frequent value,
  * ties broken by the smaller value. Kept as the oracle for Spark's `mode`.
  */
object ModeReference {
  def apply(norm: DataFrame): DataFrame = {
    val counts = norm
      .groupBy("k", "vNum", "vStr")
      .agg(count(lit(1)) as "cnt")
    val w = Window
      .partitionBy("k")
      .orderBy(col("cnt").desc, col("vNum").asc_nulls_last, col("vStr").asc_nulls_last)
    counts
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") === 1)
      .select("k", "vNum", "vStr")
  }
}

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

  test("the join-aggregation drops a train row whose target is NULL, as DuckDB's filter does") {
    val train  = Seq(("a", Some(10.0)), ("a", None), ("b", Some(12.0)), ("d", None), ("d", Some(14.0)))
      .toDF("k", "y")
    val joined = Featurize.augmentedJoin(train, "k", "y", candNum, "k", "z", AggFn.Avg)
      .select(col("ky"), col("y"), col("xn") as "x")
    assert(joined.count() == 3)
    Oracle.assertEquivalent(joined,
      """SELECT t.k AS ky, CAST(t.y AS DOUBLE) AS y, a.x AS x
        |FROM train t LEFT JOIN (
        |  SELECT k, AVG(CAST(z AS DOUBLE)) AS x FROM cand GROUP BY k
        |) a ON t.k = a.k
        |WHERE t.y IS NOT NULL""".stripMargin,
      "train" -> train, "cand" -> candNum)
  }

  test("the join-aggregation's output schema is [ky, y, xn, xstr], y DOUBLE for a numeric target") {
    import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, StringType}
    def fields(df: DataFrame): Seq[(String, DataType)] =
      df.schema.fields.toSeq.map(f => f.name -> f.dataType)
    val intTarget = Seq(("a", 1), ("b", 2)).toDF("k", "y")
    assert(intTarget.schema("y").dataType == IntegerType)
    assert(fields(Featurize.augmentedJoin(intTarget, "k", "y", candNum, "k", "z", AggFn.Avg)) ==
      Seq("ky" -> StringType, "y" -> DoubleType, "xn" -> DoubleType, "xstr" -> StringType))
    val strTarget = Seq(("a", "u"), ("b", "v")).toDF("k", "y")
    assert(fields(Featurize.augmentedJoin(strTarget, "k", "y", candNum, "k", "z", AggFn.Mode)) ==
      Seq("ky" -> StringType, "y" -> StringType, "xn" -> DoubleType, "xstr" -> StringType))
  }

  test("FIRST keeps each key's least row in content order (string values)") {
    val rows = Seq(("a", "u"), ("a", "v"), ("a", "x"), ("b", "w"))
    val hash = rows.toDF("k", "z").select(col("k"), col("z"), xxhash64(col("k"), lit(null).cast("double"), col("z")))
      .collect().map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    val expected = rows.groupBy(_._1).map { case (k, vs) => k -> vs.minBy(hash)._2 }
    for (order <- Seq(rows, rows.reverse)) {
      val agg = Featurize.aggregateNorm(Sketch.normalize(order.toDF("k", "z"), "k", "z"), AggFn.First)
        .select("k", "vStr").collect().map(r => r.getString(0) -> r.getString(1)).toMap
      assert(agg == expected)
    }
  }

  test("MODE on string values with a clear majority") {
    val c = Seq(("a", "u"), ("a", "v"), ("a", "v"), ("b", "w")).toDF("k", "z")
    val agg = Featurize.aggregateNorm(Sketch.normalize(c, "k", "z"), AggFn.Mode)
      .select("k", "vStr").collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(agg == Map("a" -> "v", "b" -> "w"))
  }

  test("MODE breaks ties to the smallest value and agrees with DuckDB") {
    // a: 1 and 3 twice each; b: 2 and 5 once each; c: 4 twice.
    val tied = Seq(("a", 3.0), ("a", 1.0), ("a", 3.0), ("a", 1.0),
      ("b", 5.0), ("b", 2.0), ("c", 4.0), ("c", 0.5), ("c", 4.0)).toDF("k", "z")
    val got = Featurize.aggregateNorm(Sketch.normalize(tied, "k", "z"), AggFn.Mode)
      .select(col("k"), col("vNum") as "x")
    assert(got.collect().map(r => r.getString(0) -> r.getDouble(1)).toMap ==
      Map("a" -> 1.0, "b" -> 2.0, "c" -> 4.0))
    // DuckDB's own `mode` has no tie rule, so the oracle ranks the counts.
    Oracle.assertEquivalent(got,
      """SELECT k, x FROM (
        |  SELECT k, x, ROW_NUMBER() OVER (PARTITION BY k ORDER BY cnt DESC, x) AS rn
        |  FROM (SELECT k, CAST(z AS DOUBLE) AS x, COUNT(*) AS cnt FROM cand GROUP BY 1, 2)
        |) WHERE rn = 1""".stripMargin,
      "cand" -> tied)
    val tiedStr = Seq(("a", "v"), ("a", "u"), ("b", "w"), ("b", "w"), ("b", "u"))
      .toDF("k", "z")
    val gotStr = Featurize.aggregateNorm(Sketch.normalize(tiedStr, "k", "z"), AggFn.Mode)
      .select(col("k"), col("vStr") as "x")
    Oracle.assertEquivalent(gotStr,
      """SELECT k, x FROM (
        |  SELECT k, x, ROW_NUMBER() OVER (PARTITION BY k ORDER BY cnt DESC, x) AS rn
        |  FROM (SELECT k, z AS x, COUNT(*) AS cnt FROM cand GROUP BY 1, 2)
        |) WHERE rn = 1""".stripMargin,
      "cand" -> tiedStr)
  }

  test("MODE equals the counts-and-row_number reference on random tables") {
    // Few keys and few values make ties common; -0.0 and 0.0 are one value.
    val genNum = Gen.oneOf(-0.0, 0.0, 1.0, -2.5, 7.0)
    val genStr = Gen.oneOf("u", "v", "w", "")
    val genTable = for {
      numeric <- Gen.oneOf(true, false)
      rows    <- Gen.choose(1, 40)
      keys    <- Gen.listOfN(rows, Gen.oneOf("a", "b", "c", "d"))
      nums    <- Gen.listOfN(rows, genNum)
      strs    <- Gen.listOfN(rows, genStr)
    } yield (numeric, keys, nums, strs)
    // Bit patterns, so that -0.0 and 0.0 differ.
    def rows(df: DataFrame): Set[(String, Option[Long], Option[String])] =
      df.collect().map(r => (r.getString(0),
        Option(r.get(1)).map(v => java.lang.Double.doubleToRawLongBits(v.asInstanceOf[Double])),
        Option(r.getString(2)))).toSet
    val prop = Prop.forAll(genTable) { case (numeric, keys, nums, strs) =>
      val df   = if (numeric) keys.zip(nums).toDF("k", "z") else keys.zip(strs).toDF("k", "z")
      val norm = Sketch.normalize(df, "k", "z")
      rows(Featurize.aggregateNorm(norm, AggFn.Mode)) == rows(ModeReference(norm))
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(res.passed, res.status.toString)
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
    // In the discovery query the string column shares its AVG aggregate with
    // a numeric one; it is still named, before any Spark job runs.
    val cands = Seq(Candidate("num", train, "k", "y", AggFn.Avg), Candidate("str", candStr, "k", "z", AggFn.Avg))
    val jobs = jobsOf("rank-avg-string") {
      val e = intercept[IllegalArgumentException](JoinRanker.rank(train, "k", "y", cands, Sketch.SketchConf(8)))
      assert(e.getMessage.contains("AVG needs a numeric column, but z is string"), e.getMessage)
    }
    assert(jobs.isEmpty, s"rejecting the candidate ran jobs $jobs")
    // COUNT, FIRST and MODE do not read the value as a number.
    for (agg <- Seq(AggFn.Count, AggFn.First, AggFn.Mode))
      assert(Featurize.aggregate(candStr, "k", "z", agg).count() == 2)
  }

  test("aggregation output has unique keys") {
    val agg = Featurize.aggregateNorm(Sketch.normalize(candNum, "k", "z"), AggFn.Avg)
    assert(agg.count() == agg.select("k").distinct().count())
  }
}
