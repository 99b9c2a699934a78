package repro.sketch

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng

class TupSkSpec extends SparkSpec {
  import spark.implicits._

  test("left sketch has exactly n rows when the table is larger than n") {
    val df = repro.SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, seed = 1)
    val sk = TupSk.sketchLeft(df, "k", "v", SketchConf(256))
    assert(sk.count() == 256)
  }

  test("left sketch keeps the whole table when n exceeds its size") {
    val df = repro.SynthData.uniformKeys(spark, rows = 100, nKeys = 10, seed = 2)
    assert(TupSk.sketchLeft(df, "k", "v", SketchConf(1000)).count() == 100)
  }

  test("sketch schema is [hkey, hu, vNum, vStr]") {
    val df = repro.SynthData.uniformKeys(spark, rows = 100, nKeys = 10, seed = 3)
    val sk = TupSk.sketchLeft(df, "k", "v", SketchConf(10))
    assert(sk.columns.toSeq == Seq("hkey", "hu", "vNum", "vStr"))
  }

  test("row inclusion probability is uniform: sampled key frequencies are proportional") {
    // 90% of rows carry key 1; a TUPSK sketch must reflect that proportion
    // (the property LV2SK lacks — Section IV-B analysis).
    val rng  = new Rng(4)
    val rows = (0 until 5000).map { i =>
      val k = if (rng.nextDouble() < 0.9) 1L else 2L + rng.nextInt(100)
      (k, i.toDouble)
    }
    val df    = rows.toDF("k", "v")
    val sk    = TupSk.sketchLeft(df, "k", "v", SketchConf(500))
    val hkey1 = df.filter(col("k") === 1L)
      .select(repro.core.Hashing.hkey(col("k"))).first().getLong(0)
    val share = sk.filter(col("hkey") === hkey1).count().toDouble / 500.0
    assert(share > 0.84 && share < 0.96, s"share=$share")
  }

  test("repeated keys produce multiple sketch rows with the same hkey") {
    val df = Seq.fill(50)(("a", 1.0)).toDF("k", "v")
    val sk = TupSk.sketchLeft(df, "k", "v", SketchConf(20))
    assert(sk.count() == 20)
    assert(sk.select("hkey").distinct().count() == 1)
  }

  test("right sketch aggregates keys before sampling (unique hkeys, size n)") {
    val df = repro.SynthData.uniformKeys(spark, rows = 5000, nKeys = 1000, seed = 5)
    val sk = TupSk.sketchRight(df, "k", "v", AggFn.Avg, SketchConf(256))
    assert(sk.count() == 256)
    assert(sk.select("hkey").distinct().count() == 256)
  }

  test("unique-key tables coordinate perfectly: sketch join has exactly n rows") {
    val left  = spark.range(1, 5001).select(col("id") as "k", rand(1) as "y")
    val right = spark.range(1, 5001).select(col("id") as "k", rand(2) as "x")
    val conf  = SketchConf(256)
    val l = TupSk.sketchLeft(left, "k", "y", conf)
    val r = TupSk.sketchRight(right, "k", "x", AggFn.First, conf)
    assert(Sketch.join(l, r).count() == 256)
  }

  test("sketches of disjoint key domains have an empty join") {
    val left  = spark.range(0, 1000).select(col("id") as "k", rand(1) as "y")
    val right = spark.range(5000, 6000).select(col("id") as "k", rand(2) as "x")
    val conf  = SketchConf(128)
    val l = TupSk.sketchLeft(left, "k", "y", conf)
    val r = TupSk.sketchRight(right, "k", "x", AggFn.First, conf)
    assert(Sketch.join(l, r).count() == 0)
  }

  test("sketch is deterministic across two builds of the same input") {
    val df = repro.SynthData.zipfKeys(spark, rows = 2000, nKeys = 50, seed = 6).cache()
    df.count()
    val a = TupSk.sketchLeft(df, "k", "v", SketchConf(64)).orderBy("hu").collect().toSeq
    val b = TupSk.sketchLeft(df, "k", "v", SketchConf(64)).orderBy("hu").collect().toSeq
    assert(a == b)
    df.unpersist()
  }

  test("the entropy-collapse pathology of Section IV-B does not occur") {
    // K = [a,b,c,d,e,f*95], Y = [0,0,0,0,0,1..95]; a size-5 LV2SK sketch can
    // collapse Y to all zeros. TUPSK samples rows uniformly, so with n=32 the
    // sketch almost surely contains many distinct Y values.
    val keys = Seq("a", "b", "c", "d", "e") ++ Seq.fill(95)("f")
    val ys   = Seq.fill(5)(0.0) ++ (1 to 95).map(_.toDouble)
    val df   = keys.zip(ys).toDF("k", "y")
    val sk   = TupSk.sketchLeft(df, "k", "y", SketchConf(32))
    val distinctY = sk.select("vNum").distinct().count()
    assert(distinctY >= 10, s"distinctY=$distinctY")
  }

  test("numeric values land in vNum, string values in vStr") {
    val num = Seq(("a", 1.5)).toDF("k", "v")
    val str = Seq(("a", "s")).toDF("k", "v")
    val n = TupSk.sketchLeft(num, "k", "v", SketchConf(5)).first()
    assert(n.getDouble(2) == 1.5 && n.isNullAt(3))
    val s = TupSk.sketchLeft(str, "k", "v", SketchConf(5)).first()
    assert(s.isNullAt(2) && s.getString(3) == "s")
  }

  test("the index keeps each candidate's n least keys, each aggregated over all its rows") {
    // 20 keys with values 1..5 each, n = 3: every kept key has COUNT 5, AVG
    // 3, MIN 1 and MAX 5. Keeping 3 rows instead of 3 keys would not.
    val df   = (for (k <- 0 until 20; v <- 1 to 5) yield (k.toLong, v.toDouble)).toDF("k", "v")
    val conf = SketchConf(3)
    val least = df.select("k").distinct()
      .select(repro.core.Hashing.hkey(col("k")) as "hkey",
        repro.core.Hashing.huTuple(repro.core.Hashing.SaltTuple, col("k"), lit(1)) as "hu")
      .orderBy("hu", "hkey").limit(3).collect().map(_.getLong(0)).toSet
    val expected = Map[AggFn, Double](AggFn.Count -> 5.0, AggFn.Avg -> 3.0, AggFn.Min -> 1.0, AggFn.Max -> 5.0)
    // One candidate (its `cand` a literal), and candidates sharing an aggregate.
    for (aggs <- Seq(Seq(AggFn.Count), Seq(AggFn.Count, AggFn.Avg, AggFn.Min, AggFn.Count, AggFn.Max))) {
      val rows = TupSk.index(aggs.map(Featurize.Feature(df, "k", "v", _)), conf)
        .select("cand", "hkey", "vNum").collect()
      for ((agg, i) <- aggs.zipWithIndex) {
        val own = rows.filter(_.getInt(0) == i)
        assert(own.map(_.getLong(1)).toSet == least && own.length == 3, s"${agg.name} candidate $i: ${own.toSeq}")
        assert(own.forall(_.getDouble(2) == expected(agg)), s"${agg.name} candidate $i: ${own.toSeq}")
      }
    }
  }

  test("every aggregate of the index reads a filter over the dense_rank window") {
    import org.apache.spark.sql.catalyst.expressions.DenseRank
    import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, Filter, LogicalPlan, Project, Window}
    def below(p: LogicalPlan): LogicalPlan = p match {
      case Project(_, child) => below(child)
      case other             => other
    }
    val df = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0), ("c", 4.0)).toDF("k", "v")
    for (aggs <- Seq(Seq(AggFn.Mode), Seq(AggFn.Avg, AggFn.Mode, AggFn.Avg, AggFn.First))) {
      val plan  = TupSk.index(aggs.map(Featurize.Feature(df, "k", "v", _)), SketchConf(2)).queryExecution.optimizedPlan
      val reads = plan.collect { case a: Aggregate => below(a.child) }
      assert(reads.size == aggs.distinct.size, plan.toString)
      for (read <- reads) read match {
        case Filter(_, child) => below(child) match {
          case w: Window =>
            assert(w.windowExpressions.exists(_.find(_.isInstanceOf[DenseRank]).isDefined), plan.toString)
          case other => fail(s"the filter reads ${other.nodeName}, not a window:\n$plan")
        }
        case other => fail(s"an aggregate reads ${other.nodeName}, not a filter:\n$plan")
      }
    }
  }
}
