package repro.synth

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.stats.Rng

class DecomposeSpec extends SparkSpec {

  private def data(n: Int, m: Int, seed: Long): (Array[Double], Array[Double]) = {
    val rng = new Rng(seed)
    val xs  = Array.fill(n)(rng.nextInt(m).toDouble)
    val ys  = xs.map(x => 2 * x + rng.nextInt(3))
    (xs, ys)
  }

  test("KeyInd produces unique keys on both sides") {
    val (xs, ys) = data(500, 10, 1)
    val p = Decompose(spark, xs, ys, Decompose.KeyInd)
    assert(p.train.select("k").distinct().count() == 500)
    assert(p.cand.select("k").distinct().count() == 500)
  }

  test("KeyDep produces one key per distinct X value") {
    val (xs, ys) = data(500, 10, 2)
    val p = Decompose(spark, xs, ys, Decompose.KeyDep)
    assert(p.cand.select("k").distinct().count() == xs.distinct.length)
    assert(p.train.count() == 500)
  }

  test("KeyInd join exactly recovers the generated (X, Y) rows") {
    val (xs, ys) = data(300, 8, 3)
    val p = Decompose(spark, xs, ys, Decompose.KeyInd)
    val joined = p.train.join(p.cand, "k").select("x", "y")
      .collect().map(r => (r.getDouble(0), r.getDouble(1))).sorted.toSeq
    assert(joined == xs.zip(ys).sorted.toSeq)
  }

  test("KeyDep join (after aggregation) exactly recovers the (X, Y) multiset") {
    val (xs, ys) = data(300, 8, 4)
    val p = Decompose(spark, xs, ys, Decompose.KeyDep)
    val aug = p.cand.groupBy("k").agg(first("x") as "x")
    val joined = p.train.join(aug, "k").select("x", "y")
      .collect().map(r => (r.getDouble(0), r.getDouble(1))).sorted.toSeq
    assert(joined == xs.zip(ys).sorted.toSeq)
  }

  test("KeyDep left join agrees with DuckDB on the paper's query shape") {
    val (xs, ys) = data(100, 5, 5)
    val p = Decompose(spark, xs, ys, Decompose.KeyDep)
    val got = p.train.join(p.cand.groupBy("k").agg(avg("x") as "x"), Seq("k"), "left")
      .select(col("k").cast("string") as "k", col("y"), col("x"))
    Oracle.assertEquivalent(got,
      """SELECT t.k AS k, CAST(t.y AS DOUBLE) AS y, a.x AS x
        |FROM train t LEFT JOIN (
        |  SELECT k, AVG(CAST(x AS DOUBLE)) AS x FROM cand GROUP BY k
        |) a ON t.k = a.k""".stripMargin,
      "train" -> p.train, "cand" -> p.cand)
  }

  test("KeyDep rejects non-integral X") {
    val xs = Array(0.5, 1.0); val ys = Array(1.0, 2.0)
    intercept[IllegalArgumentException](Decompose(spark, xs, ys, Decompose.KeyDep))
  }

  test("KeyDep key frequencies follow the X marginal") {
    val (xs, ys) = data(2000, 4, 6)
    val p = Decompose(spark, xs, ys, Decompose.KeyDep)
    val freqs = p.train.groupBy("k").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until 4).foreach { v =>
      assert(freqs(v.toLong) == xs.count(_ == v.toDouble), s"v=$v")
    }
  }
}
