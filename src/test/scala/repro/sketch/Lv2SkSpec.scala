package repro.sketch

import org.apache.spark.sql.catalyst.plans.logical.{Join, Window}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng

class Lv2SkSpec extends SparkSpec {
  import spark.implicits._

  test("sketch size is within [n, 2n] when the key domain has >= n keys") {
    val df = repro.SynthData.zipfKeys(spark, rows = 10000, nKeys = 2000, seed = 1)
    val c  = Lv2Sk.sketchLeft(df, "k", "v", SketchConf(256)).count()
    assert(c >= 256 && c <= 512, s"size=$c")
  }

  test("per-key sample counts equal max(1, floor(n*Nk/N))") {
    val rng  = new Rng(2)
    val rows = (0 until 1000).map { _ =>
      val k = rng.nextInt(20).toLong // 20 keys, all selected since m_K < n
      (k, rng.nextDouble())
    }
    val df = rows.toDF("k", "v").cache(); df.count()
    val n  = 64
    val sk = Lv2Sk.sketchLeft(df, "k", "v", SketchConf(n))
    val gotByHkey = sk.groupBy("hkey").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    val expByHkey = df.groupBy("k").count()
      .select(Hashing.hkey(col("k")) as "hkey", col("count"))
      .collect()
      .map(r => r.getLong(0) -> math.max(1L, n * r.getLong(1) / 1000))
      .toMap
    assert(gotByHkey == expByHkey)
    df.unpersist()
  }

  test("a key absent from the first-level selection contributes no rows") {
    // 3000 distinct keys, n=100: exactly 100 distinct hkeys in the sketch.
    val df = spark.range(3000).select(col("id") as "k", rand(3) as "v")
    val sk = Lv2Sk.sketchLeft(df, "k", "v", SketchConf(100))
    assert(sk.select("hkey").distinct().count() == 100)
  }

  test("the Section IV-B pathology: the f-heavy table yields capped f samples") {
    // K = [a..e, f*95], N=100, n=5: if f is selected it contributes exactly
    // floor(5*95/100) = 4 rows; every other selected key contributes 1.
    val keys = Seq("a", "b", "c", "d", "e") ++ Seq.fill(95)("f")
    val ys   = Seq.fill(5)(0.0) ++ (1 to 95).map(_.toDouble)
    val df   = keys.zip(ys).toDF("k", "y").cache(); df.count()
    val sk   = Lv2Sk.sketchLeft(df, "k", "y", SketchConf(5))
    val hkeyF = Seq("f").toDF("k").select(Hashing.hkey(col("k"))).first().getLong(0)
    val counts = sk.groupBy("hkey").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    counts.foreach { case (hk, c) =>
      if (hk == hkeyF) assert(c == 4, s"f contributed $c rows")
      else assert(c == 1, s"non-f key contributed $c rows")
    }
    df.unpersist()
  }

  test("LV2SK selection ignores key frequency in level 1 (the documented bias)") {
    // A key holding 90% of rows is selected with the same probability as any
    // other key; across salts.. we verify the deterministic consequence: the
    // selected key set equals the n minimum h_u(k) regardless of frequency.
    val rng  = new Rng(4)
    val rows = (0 until 2000).map { _ =>
      val k = if (rng.nextDouble() < 0.9) 0L else 1L + rng.nextInt(500)
      (k, rng.nextDouble())
    }
    val df  = rows.toDF("k", "v").cache(); df.count()
    val n   = 50
    val sk  = Lv2Sk.sketchLeft(df, "k", "v", SketchConf(n))
    val got = sk.select("hkey").distinct().collect().map(_.getLong(0)).toSet
    val exp = df.select(col("k")).distinct()
      .select(Hashing.hkey(col("k")) as "hkey", Hashing.huKey(Hashing.SaltKey, col("k")) as "hu")
      .orderBy("hu").limit(n).collect().map(_.getLong(0)).toSet
    assert(got == exp)
    df.unpersist()
  }

  test("right sketch equals key-level KMV over the aggregated table") {
    val df = repro.SynthData.uniformKeys(spark, rows = 3000, nKeys = 400, seed = 5)
    val sk = Lv2Sk.sketchRight(df, "k", "v", AggFn.Avg, SketchConf(100))
    assert(sk.count() == 100)
    assert(sk.select("hkey").distinct().count() == 100)
  }

  test("left and right sketches coordinate: same selected keys when domains match") {
    val left  = spark.range(0, 2000).select(col("id") as "k", rand(6) as "y")
    val right = spark.range(0, 2000).select(col("id") as "k", rand(7) as "x")
    val conf  = SketchConf(128)
    val lKeys = Lv2Sk.sketchLeft(left, "k", "y", conf).select("hkey").distinct()
      .collect().map(_.getLong(0)).toSet
    val rKeys = Lv2Sk.sketchRight(right, "k", "x", AggFn.First, conf).select("hkey")
      .collect().map(_.getLong(0)).toSet
    assert(lKeys == rKeys)
  }

  test("PRISK selects high-frequency keys preferentially") {
    val rng  = new Rng(8)
    // 500 keys; keys 0..9 hold ~80% of the mass.
    val rows = (0 until 5000).map { _ =>
      val k = if (rng.nextDouble() < 0.8) rng.nextInt(10).toLong else 10L + rng.nextInt(490)
      (k, rng.nextDouble())
    }
    val df = rows.toDF("k", "v").cache(); df.count()
    val n  = 50
    val heavyHkeys = (0 until 10)
      .map(k => Seq(k.toLong).toDF("k").select(Hashing.hkey(col("k"))).first().getLong(0)).toSet
    val pri = PriSk.sketchLeft(df, "k", "v", SketchConf(n))
      .select("hkey").distinct().collect().map(_.getLong(0)).toSet
    val priHeavy = pri.count(heavyHkeys.contains)
    // Priority sampling must select (essentially) all 10 heavy keys.
    assert(priHeavy >= 9, s"priority selected only $priHeavy heavy keys")
    df.unpersist()
  }

  test("PRISK equals LV2SK when all key frequencies are equal") {
    val df = spark.range(0, 1000).select(col("id") as "k", rand(9) as "v").cache()
    df.count()
    val a = Lv2Sk.sketchLeft(df, "k", "v", SketchConf(64)).orderBy("hu", "hkey").collect().toSeq
    val b = PriSk.sketchLeft(df, "k", "v", SketchConf(64)).orderBy("hu", "hkey").collect().toSeq
    assert(a == b)
    df.unpersist()
  }

  test("PRISK sketch size obeys the same [n, 2n] bound") {
    val df = repro.SynthData.zipfKeys(spark, rows = 8000, nKeys = 1500, seed = 10)
    val c  = PriSk.sketchLeft(df, "k", "v", SketchConf(200)).count()
    assert(c >= 200 && c <= 400, s"size=$c")
  }

  test("the second level samples a key's rows, not its distinct values") {
    // One key, 50 rows of 1.0 and 50 of 2.0, n_k = 10. Equal rows share a
    // content hash, so its first 10 rows in content order hold one value.
    val df = (Seq.fill(50)(1.0) ++ Seq.fill(50)(2.0)).map(("f", _)).toDF("k", "v")
    for (sk <- Seq(Lv2Sk, PriSk)) {
      val kept = sk.sketchLeft(df, "k", "v", SketchConf(10)).select("vNum").collect().map(_.getDouble(0))
      assert(kept.length == 10 && kept.toSet == Set(1.0, 2.0), s"${sk.name} kept ${kept.mkString(", ")}")
    }
  }

  test("neither two-level scheme gathers the whole table into one window") {
    // A window with no PARTITION BY moves every row it reads into one task.
    // The two windows (occurrence j, second-level rank) read only the rows
    // the join with the chosen keys lets through.
    val df = repro.SynthData.zipfKeys(spark, rows = 1000, nKeys = 200, seed = 11)
    for (sk <- Seq(Lv2Sk, PriSk)) {
      val plan = sk.sketchLeft(df, "k", "v", SketchConf(64)).queryExecution.optimizedPlan
      val windows = plan.collect { case w: Window => w }
      assert(windows.size == 2, s"${sk.name}: ${windows.mkString("; ")}")
      val unpartitioned = windows.filter(_.partitionSpec.isEmpty)
      assert(unpartitioned.isEmpty, s"${sk.name}: ${unpartitioned.mkString("; ")}")
      val beforeJoin = windows.filterNot(_.exists(_.isInstanceOf[Join]))
      assert(beforeJoin.isEmpty, s"${sk.name}: a window reads the whole table: ${beforeJoin.mkString("; ")}")
    }
  }
}
