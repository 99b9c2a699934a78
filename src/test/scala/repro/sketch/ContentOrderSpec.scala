package repro.sketch

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.discovery.JoinRanker
import repro.discovery.JoinRanker.Candidate
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng

/** A sketch is a function of its table's contents: a key's rows are ordered
  * by their content, so no sketch, candidate index or estimate depends on how
  * the input is partitioned.
  */
class ContentOrderSpec extends SparkSpec {
  import spark.implicits._

  private def multiset[T](xs: Seq[T]): Map[T, Int] = xs.groupBy(identity).map { case (k, v) => k -> v.size }

  /** A row's fields, each double as its bits, so that -0.0 and 0.0 differ. */
  private def bits(r: Row): Seq[Any] = r.toSeq.map {
    case d: java.lang.Double => java.lang.Double.doubleToRawLongBits(d)
    case other               => other
  }

  /** Rows over `nKeys` skewed keys with one-decimal values in [-1.5, 1.5],
    * -0.0 among them, so that keys repeat and so do (key, value) pairs.
    */
  private def genRows(rows: Int, nKeys: Int, seed: Long): Seq[(Long, Double)] = {
    val rng = new Rng(seed)
    Seq.fill(rows) {
      val k = (nKeys * rng.nextDouble() * rng.nextDouble()).toLong
      val v = if (rng.nextInt(20) == 0) -0.0 else (rng.nextInt(31) - 15) / 10.0
      (k, v)
    }
  }

  /** `rows` as a table `[k, v]`, `v` DOUBLE or, if not `numeric`, STRING. */
  private def table(rows: Seq[(Long, Double)], numeric: Boolean): DataFrame =
    if (numeric) rows.toDF("k", "v") else rows.map { case (k, v) => (k, s"s$v") }.toDF("k", "v")

  /** The same table under four partitionings. */
  private def layouts(df: DataFrame): Seq[(String, DataFrame)] = Seq(
    "as built" -> df, "coalesce(1)" -> df.coalesce(1),
    "repartition(3)" -> df.repartition(3), "repartition(7)" -> df.repartition(7))

  /** Every scheme's left sketch and its right sketches under FIRST and
    * `agg`, each row tagged with the sketch it belongs to, in one collect.
    */
  private def sketches(df: DataFrame, agg: AggFn, conf: SketchConf): Map[Seq[Any], Int] = {
    val tagged = Sketcher.all.flatMap { sk =>
      Seq(
        s"${sk.name} left"              -> sk.sketchLeft(df, "k", "v", conf),
        s"${sk.name} right FIRST"       -> sk.sketchRight(df, "k", "v", AggFn.First, conf),
        s"${sk.name} right ${agg.name}" -> sk.sketchRight(df, "k", "v", agg, conf))
    }.map { case (tag, sketch) => sketch.select(lit(tag), col("hkey"), col("hu"), col("vNum"), col("vStr")) }
    multiset(tagged.reduce(_ union _).collect().toSeq.map(bits))
  }

  test("every scheme's sketches are the same under any partitioning (scalacheck)") {
    val gen = for {
      rows    <- Gen.choose(1, 800)
      nKeys   <- Gen.oneOf(Gen.choose(1, 10), Gen.choose(50, 400))
      seed    <- Gen.choose(0L, 1000000L)
      numeric <- Gen.oneOf(true, false)
      agg     <- if (numeric) Gen.oneOf(AggFn.Avg, AggFn.Mode, AggFn.Max, AggFn.Min, AggFn.Count)
                 else Gen.oneOf(AggFn.Mode, AggFn.Count)
      n       <- Gen.oneOf(4, 32, 256)
    } yield (genRows(rows, nKeys, seed), numeric, agg, n)
    def holds(rows: Seq[(Long, Double)], numeric: Boolean, agg: AggFn, n: Int): Boolean = {
      val conf   = SketchConf(n)
      val all    = layouts(table(rows, numeric)).map { case (name, df) => name -> sketches(df, agg, conf) }
      val differ = all.tail.collect { case (name, s) if s != all.head._2 => name }
      if (differ.nonEmpty)
        println(s"sketches differ under ${differ.mkString(", ")}: ${rows.size} rows, numeric=$numeric, ${agg.name}, n=$n")
      differ.isEmpty
    }
    assert(holds(genRows(2000, 300, 1), numeric = true, AggFn.Mode, 64))
    val prop = Prop.forAll(gen) { case (rows, numeric, agg, n) => holds(rows, numeric, agg, n) }
    val res  = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(6), prop)
    assert(res.passed, res.status.toString)
  }

  test("JoinRanker.rank gives bit-identical estimates under any partitioning") {
    val train = table(genRows(4000, 600, 2).map { case (k, v) => (k, v + k % 7) }, numeric = true)
    val cands = Seq(
      ("first", genRows(3000, 600, 3), true, AggFn.First),
      ("mode", genRows(3000, 600, 4), true, AggFn.Mode),
      ("avg", genRows(3000, 600, 5), true, AggFn.Avg),
      ("firstStr", genRows(3000, 600, 6), false, AggFn.First))
    val runs = Seq(0, 1, 3, 7).map { p =>
      def layout(df: DataFrame) = if (p == 0) df else if (p == 1) df.coalesce(1) else df.repartition(p)
      val cs = cands.map { case (name, rows, numeric, agg) => Candidate(name, layout(table(rows, numeric)), "k", "v", agg) }
      p -> JoinRanker.rank(layout(train), "k", "v", cs, SketchConf(256)).sortBy(_.name)
    }
    assert(runs.head._2.forall(r => !r.estimatedMI.isNaN), runs.head._2.mkString(", "))
    for ((p, ranked) <- runs.tail; (a, b) <- runs.head._2.zip(ranked))
      assert(a.name == b.name && a.sketchJoinSize == b.sketchJoinSize &&
        java.lang.Double.compare(a.estimatedMI, b.estimatedMI) == 0, s"p=$p: $a vs $b")
  }

  test("no sketch, candidate index or full join plans a nondeterministic expression") {
    // RDD-backed: the optimizer would evaluate the plan of a local Seq's
    // projections into a new local table, nondeterministic ones included.
    val sc    = spark.sparkContext
    val train = sc.parallelize(Seq((1L, 0.5), (1L, 1.5), (2L, 2.5), (3L, -0.0))).toDF("k", "y")
    val cand  = sc.parallelize(Seq((1L, 4.0), (2L, 5.0), (2L, 6.0), (4L, 7.0))).toDF("k", "x")
    val aggs  = Seq(AggFn.First, AggFn.Avg, AggFn.Count, AggFn.Mode, AggFn.Max, AggFn.Min)
    val conf  = SketchConf(2)
    val plans =
      Sketcher.all.flatMap { sk =>
        (s"${sk.name} left" -> sk.sketchLeft(train, "k", "y", conf)) +:
          aggs.map(agg => s"${sk.name} right ${agg.name}" -> sk.sketchRight(cand, "k", "x", agg, conf))
      } ++ Seq(
        "TUPSK index" -> TupSk.index(aggs.map(Featurize.Feature(cand, "k", "x", _)), conf),
        "augmentedJoin" -> Featurize.augmentedJoin(train, "k", "y", cand, "k", "x", AggFn.First))
    for ((name, df) <- plans) {
      val culprits = df.queryExecution.optimizedPlan.flatMap(_.expressions).flatMap(_.collect {
        case e if !e.deterministic && e.children.forall(_.deterministic) => e.prettyName
      })
      assert(culprits.isEmpty, s"$name plans ${culprits.distinct.mkString(", ")}")
    }
  }

  test("withOccurrence and FIRST follow a driver-side sort of each key's rows") {
    import Ordering.Double.TotalOrdering
    val rows = genRows(3000, 200, 7)
    for (numeric <- Seq(true, false)) {
      val norm  = Sketch.normalize(table(rows, numeric), "k", "v")
      val value = if (numeric) 1 else 2
      // The reference: each key's rows sorted by (xxhash64(k, vNum, vStr), value), numbered from 1.
      val reference = norm.select(col("k"), col("vNum"), col("vStr"), xxhash64(col("k"), col("vNum"), col("vStr")))
        .collect().toSeq.groupBy(_.getString(0)).toSeq.flatMap { case (k, rs) =>
          val sorted =
            if (numeric) rs.sortBy(r => (r.getLong(3), r.getDouble(1)))
            else rs.sortBy(r => (r.getLong(3), r.getString(2)))
          sorted.zipWithIndex.map { case (r, i) => (k, i + 1, bits(r)(value)) }
        }
      val numbered = Sketch.withOccurrence(norm).select("k", "j", "vNum", "vStr").collect().toSeq
        .map(r => (r.getString(0), r.getInt(1), bits(r)(value + 1)))
      assert(multiset(numbered) == multiset(reference), s"numeric=$numeric")
      val first = Featurize.aggregateNorm(norm, AggFn.First).select("k", "vNum", "vStr").collect()
        .map(r => r.getString(0) -> bits(r)(value)).toMap
      assert(first == reference.collect { case (k, 1, v) => k -> v }.toMap, s"numeric=$numeric")
    }
  }
}
