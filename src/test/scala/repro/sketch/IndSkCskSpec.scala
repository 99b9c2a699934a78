package repro.sketch

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.sketch.Sketch.SketchConf

class IndSkCskSpec extends SparkSpec {
  import spark.implicits._

  test("INDSK sketches are size n on both sides") {
    val df   = repro.SynthData.uniformKeys(spark, rows = 5000, nKeys = 5000, seed = 1)
    val conf = SketchConf(256)
    assert(IndSk.sketchLeft(df, "k", "v", conf).count() == 256)
    assert(IndSk.sketchRight(df, "k", "v", AggFn.First, conf).count() <= 256)
  }

  test("INDSK join size collapses quadratically (the Section IV motivation)") {
    // Unique keys, both tables over the same 5000-key domain: coordinated
    // sampling yields n matches; independent sampling yields ~n^2/N ~= 13.
    val left  = spark.range(0, 5000).select(col("id") as "k", rand(2) as "y")
    val right = spark.range(0, 5000).select(col("id") as "k", rand(3) as "x")
    val conf  = SketchConf(256)
    val ind = Sketch.join(
      IndSk.sketchLeft(left, "k", "y", conf),
      IndSk.sketchRight(right, "k", "x", AggFn.First, conf)).count()
    val tup = Sketch.join(
      TupSk.sketchLeft(left, "k", "y", conf),
      TupSk.sketchRight(right, "k", "x", AggFn.First, conf)).count()
    assert(tup == 256)
    assert(ind < 60, s"independent join size $ind should be far below 256")
  }

  test("INDSK left and right samples are uncorrelated across salts") {
    val df   = spark.range(0, 2000).select(col("id") as "k", rand(4) as "v")
    val conf = SketchConf(200)
    val l = IndSk.sketchLeft(df, "k", "v", conf).select("hkey").collect().map(_.getLong(0)).toSet
    val r = IndSk.sketchRight(df, "k", "v", AggFn.First, conf)
      .select("hkey").collect().map(_.getLong(0)).toSet
    val inter = l.intersect(r).size
    // Expected overlap = 200 * 200/2000 = 20.
    assert(inter < 50, s"overlap=$inter")
  }

  test("CSK keeps one row per key on the left (repeated keys collapsed)") {
    val df = Seq(("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 4.0)).toDF("k", "v")
    val sk = Csk.sketchLeft(df, "k", "v", SketchConf(10))
    assert(sk.count() == 2)
    assert(sk.select("hkey").distinct().count() == 2)
  }

  test("CSK keeps a repeated key's least row in content order, in any row order") {
    val values = Seq(7.0, 9.0, 11.0)
    val least  = values.minBy(v => Seq(v).toDF("v")
      .select(xxhash64(lit("a"), col("v"), lit(null).cast("string"))).first().getLong(0))
    for (order <- values.permutations) {
      val sk = Csk.sketchLeft(order.map(("a", _)).toDF("k", "v"), "k", "v", SketchConf(10))
      assert(sk.select("vNum").collect().map(_.getDouble(0)).toSeq == Seq(least))
    }
  }

  test("CSK ignores the AGG function on the right side") {
    val df = Seq(("a", 2.0), ("a", 10.0)).toDF("k", "v")
    val avg   = Csk.sketchRight(df, "k", "v", AggFn.Avg, SketchConf(10))
    val first = Csk.sketchRight(df, "k", "v", AggFn.First, SketchConf(10))
    assert(avg.select("vNum").first().getDouble(0) == 2.0)
    assert(first.select("vNum").first().getDouble(0) == 2.0)
  }

  test("CSK is fully coordinated: join size n on overlapping unique-key tables") {
    val left  = spark.range(0, 3000).select(col("id") as "k", rand(5) as "y")
    val right = spark.range(0, 3000).select(col("id") as "k", rand(6) as "x")
    val conf  = SketchConf(128)
    val j = Sketch.join(
      Csk.sketchLeft(left, "k", "y", conf),
      Csk.sketchRight(right, "k", "x", AggFn.First, conf)).count()
    assert(j == 128)
  }

  test("CSK loses the key-frequency structure that TUPSK preserves") {
    // 90% of rows carry key "hot": CSK's sample has one "hot" row; TUPSK ~90%.
    val rng  = new repro.stats.Rng(7)
    val rows = (0 until 3000).map { i =>
      val k = if (rng.nextDouble() < 0.9) "hot" else s"k${rng.nextInt(500)}"
      (k, i.toDouble)
    }
    val df   = rows.toDF("k", "v")
    val conf = SketchConf(100)
    val hotH = Seq("hot").toDF("k")
      .select(repro.core.Hashing.hkey(col("k"))).first().getLong(0)
    val cskHot = Csk.sketchLeft(df, "k", "v", conf).filter(col("hkey") === hotH).count()
    val tupHot = TupSk.sketchLeft(df, "k", "v", conf).filter(col("hkey") === hotH).count()
    assert(cskHot <= 1)
    assert(tupHot > 75, s"tupHot=$tupHot")
  }
}
