package repro.mi

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.stats.Rng

/** `MleSpark` is a test-scope DataFrame formulation of the plug-in MI: it
  * ties the driver-side `Mle`, which every estimate in the program uses, to
  * DuckDB's SQL entropy.
  */
class MleSparkSpec extends SparkSpec {
  import spark.implicits._

  private def sampleDf(n: Int, seed: Long) = {
    val rng = new Rng(seed)
    (0 until n).map { _ =>
      val x = rng.nextInt(4)
      val y = if (rng.nextDouble() < 0.7) x % 3 else rng.nextInt(3)
      (s"x$x", s"y$y")
    }.toDF("x", "y")
  }

  test("distributed MLE MI matches the driver-side implementation") {
    val df   = sampleDf(3000, 1).cache()
    val rows = df.collect()
    val d    = Mle.mi(rows.map(_.getString(0): AnyRef).toIndexedSeq,
                      rows.map(_.getString(1): AnyRef).toIndexedSeq)
    val s    = MleSpark.mi(df, "x", "y")
    assert(math.abs(d - s) < 1e-9, s"driver=$d spark=$s")
    df.unpersist()
  }

  test("distributed entropy matches DuckDB's -sum p ln p") {
    val df  = sampleDf(500, 2)
    val got = Seq(Tuple1(MleSpark.entropy(df, "x"))).toDF("h")
    Oracle.assertEquivalent(got,
      """SELECT -SUM(p * LN(p)) AS h FROM (
        |  SELECT COUNT(*) * 1.0 / (SELECT COUNT(*) FROM t) AS p FROM t GROUP BY x
        |)""".stripMargin,
      "t" -> df)
  }

  test("distributed MI (H terms) matches a DuckDB SQL formulation") {
    val df  = sampleDf(400, 3)
    val hx  = MleSpark.entropy(df, "x")
    val hy  = MleSpark.entropy(df, "y")
    val hxy = MleSpark.mi(df, "x", "y") // = hx + hy - hxy by construction
    val got = Seq((hx, hy, hx + hy - hxy)).toDF("hx", "hy", "hxy")
    Oracle.assertEquivalent(got,
      """WITH n AS (SELECT COUNT(*)*1.0 AS c FROM t)
        |SELECT
        |  (SELECT -SUM(p*LN(p)) FROM (SELECT COUNT(*)/(SELECT c FROM n) AS p FROM t GROUP BY x)) AS hx,
        |  (SELECT -SUM(p*LN(p)) FROM (SELECT COUNT(*)/(SELECT c FROM n) AS p FROM t GROUP BY y)) AS hy,
        |  (SELECT -SUM(p*LN(p)) FROM (SELECT COUNT(*)/(SELECT c FROM n) AS p FROM t GROUP BY x, y)) AS hxy
        |""".stripMargin,
      "t" -> df)
  }

  test("MI of independent constant column is 0") {
    val df = Seq(("a", "u"), ("b", "u"), ("c", "u")).toDF("x", "y")
    assert(MleSpark.mi(df, "x", "y") < 1e-12)
  }

  test("MI of identical columns equals the entropy") {
    val df = Seq("a", "a", "b", "c").toDF("x").withColumn("y", col("x"))
    assert(math.abs(MleSpark.mi(df, "x", "y") - MleSpark.entropy(df, "x")) < 1e-12)
  }

  test("NULL rows are discarded before estimation") {
    val df = Seq(("a", "u"), ("b", null), (null, "v"), ("a", "u")).toDF("x", "y")
    val clean = Seq(("a", "u"), ("a", "u")).toDF("x", "y")
    assert(MleSpark.mi(df, "x", "y") == MleSpark.mi(clean, "x", "y"))
  }

  test("works on numeric columns too") {
    val df = Seq((1, 10.0), (1, 10.0), (2, 20.0), (2, 20.0)).toDF("x", "y")
    assert(math.abs(MleSpark.mi(df, "x", "y") - math.log(2)) < 1e-12)
  }
}
