package repro.sketch

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng

/** The left sketchers as they were built on an occurrence window partitioned
  * by the key itself, `row_number() OVER (PARTITION BY k ORDER BY <content
  * order>)`, in whatever partitions Spark chose, each row's hkey computed
  * after it. Kept as the oracle of [[Sketch.withOccurrence]]'s hkey
  * partitions.
  */
object OccurrenceReference {
  def withOccurrence(norm: DataFrame): DataFrame =
    norm.withColumn("j", row_number().over(Window.partitionBy("k").orderBy(Sketch.contentOrder: _*)))

  private def pre(rows: DataFrame, hu: Column): DataFrame =
    rows.select(Hashing.hkey(col("k")) as "hkey", hu as "hu", col("vNum"), col("vStr"))

  private def tuple(df: DataFrame, key: String, value: String, salt: Int, conf: SketchConf): DataFrame = {
    val withJ = withOccurrence(Sketch.normalize(df, key, value))
    Sketch.topN(pre(withJ, Hashing.huTuple(salt, col("k"), col("j"))), conf.n)
  }

  private def twoLevel(df: DataFrame, key: String, value: String, conf: SketchConf,
                       keyOrder: (Column, Column) => Column): DataFrame = {
    val norm   = Sketch.normalize(df, key, value)
    val counts = norm.groupBy("k").agg(count(lit(1)) as "Nk")
      .withColumn("huKey", Hashing.huKey(Hashing.SaltKey, col("k")))
    val chosen = counts
      .orderBy(keyOrder(col("huKey"), col("Nk")).asc, col("k").asc)
      .limit(conf.n)
      .crossJoin(counts.agg(sum("Nk") as "N"))
    val byHash = Window.partitionBy("k")
      .orderBy(Hashing.huTuple(Hashing.SaltSecondLevel, col("k"), col("j")), col("j"))
    val kept = withOccurrence(norm.join(chosen, Seq("k")))
      .withColumn("rank", row_number().over(byHash))
      .filter(col("rank") <= greatest(lit(1L), floor(lit(conf.n.toLong) * col("Nk") / col("N"))))
    pre(kept, col("huKey"))
  }

  /** The left sketch `sk` gave on the key-partitioned window; every scheme but CSK, which numbers no rows. */
  def sketchLeft(sk: Sketcher, df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame = sk match {
    case TupSk => tuple(df, key, value, Hashing.SaltTuple, conf)
    case IndSk => tuple(df, key, value, Hashing.SaltIndLeft, conf)
    case Lv2Sk => twoLevel(df, key, value, conf, (hu, _) => hu)
    case PriSk => twoLevel(df, key, value, conf, (hu, nk) => hu / nk.cast("double"))
    case other => throw new IllegalArgumentException(s"${other.name} numbers no occurrences")
  }
}

/** The occurrence window runs in one hkey partition per core and gives the
  * rows the key-partitioned window gave.
  */
class OccurrenceSpec extends SparkSpec {
  import spark.implicits._

  private val numbered = Seq(TupSk, IndSk, Lv2Sk, PriSk)

  /** A row's fields, each double as its bits, so that -0.0 and 0.0 differ. */
  private def bits(r: Row): Seq[Any] = r.toSeq.map {
    case d: java.lang.Double => java.lang.Double.doubleToRawLongBits(d)
    case other               => other
  }

  /** Each scheme's left sketch by `build`, its rows tagged with the scheme, from one collect. */
  private def leftSketches(build: Sketcher => DataFrame, schemes: Seq[Sketcher] = numbered): Map[Seq[Any], Int] =
    schemes.map(sk => build(sk).select(lit(sk.name), col("hkey"), col("hu"), col("vNum"), col("vStr")))
      .reduce(_ union _).collect().toSeq.map(bits).groupBy(identity).map { case (k, v) => k -> v.size }

  /** Rows over `nKeys` skewed keys with one-decimal values, -0.0 among them, `v` DOUBLE or STRING. */
  private def table(rows: Int, nKeys: Int, seed: Long, numeric: Boolean, parts: Int): DataFrame = {
    val rng = new Rng(seed)
    val kv  = Seq.fill(rows) {
      val k = (nKeys * rng.nextDouble() * rng.nextDouble()).toLong
      val v = if (rng.nextInt(20) == 0) -0.0 else (rng.nextInt(31) - 15) / 10.0
      (k, v)
    }
    val sc = spark.sparkContext
    if (numeric) sc.parallelize(kv, parts).toDF("k", "v")
    else sc.parallelize(kv.map { case (k, v) => (k, s"s$v") }, parts).toDF("k", "v")
  }

  test("every left sketcher gives the rows of the key-partitioned occurrence window (scalacheck)") {
    val gen = for {
      rows    <- Gen.choose(1, 800)
      nKeys   <- Gen.oneOf(Gen.choose(1, 10), Gen.choose(50, 400))
      seed    <- Gen.choose(0L, 1000000L)
      numeric <- Gen.oneOf(true, false)
      n       <- Gen.oneOf(4, 32, 256)
    } yield (rows, nKeys, seed, numeric, n)
    def holds(rows: Int, nKeys: Int, seed: Long, numeric: Boolean, n: Int): Boolean = {
      val df   = table(rows, nKeys, seed, numeric, 4)
      val conf = SketchConf(n)
      val differ = for {
        (layout, in) <- Seq("coalesce(1)" -> df.coalesce(1), "repartition(3)" -> df.repartition(3),
                            "repartition(7)" -> df.repartition(7))
        if leftSketches(_.sketchLeft(in, "k", "v", conf)) !=
          leftSketches(OccurrenceReference.sketchLeft(_, in, "k", "v", conf))
      } yield layout
      if (differ.nonEmpty)
        println(s"left sketches differ under ${differ.mkString(", ")}: $rows rows, $nKeys keys, seed $seed, numeric=$numeric, n=$n")
      differ.isEmpty
    }
    for (numeric <- Seq(true, false)) assert(holds(3000, 300, 1, numeric, 64))
    val prop = Prop.forAll(gen) { case (rows, nKeys, seed, numeric, n) => holds(rows, nKeys, seed, numeric, n) }
    val res  = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(6), prop)
    assert(res.passed, res.status.toString)
  }

  test("the occurrence window runs defaultParallelism tasks after its shuffle on a table under 1 MB") {
    val sc   = spark.sparkContext
    val norm = Sketch.normalize(table(5000, 400, 2, numeric = true, 3), "k", "v")
    val jobs = jobsOf("occurrence-tasks")(Sketch.withOccurrence(norm).write.format("noop").mode("overwrite").save())
    assert(jobs.nonEmpty)
    // The last job runs the window: its shuffle's map stage is skipped, its result stage numbers the rows.
    val window = sc.statusTracker.getJobInfo(jobs.max).get.stageIds().max
    assert(sc.statusTracker.getStageInfo(window).get.numTasks() == sc.defaultParallelism)
  }

  test("each scheme's left sketch runs a fixed number of Spark jobs on a multi-partition input") {
    val df       = table(3000, 300, 3, numeric = true, 4)
    val expected = Map("CSK" -> 2, "INDSK" -> 2, "LV2SK" -> 5, "PRISK" -> 5, "TUPSK" -> 2)
    val got      = Sketcher.all.map { sk =>
      sk.name -> jobsOf(s"left-jobs-${sk.name}")(sk.sketchLeft(df, "k", "v", SketchConf(64)).collect()).size
    }.toMap
    assert(got == expected)
  }

  test("TUPSK and INDSK give the window's rows on a dominant key, empty input slices and non-ASCII values") {
    val sc  = spark.sparkContext
    val rng = new Rng(5)
    // Key 0 holds 500 of 700 rows: more than n and than all other keys together.
    val dominant = Seq.tabulate(700) { i =>
      (if (i % 7 < 5) 0L else 1L + rng.nextInt(60), (rng.nextInt(31) - 15) / 10.0)
    }
    val words    = Seq("", "é", "ß", "日本語", "\uff21", "\ud83d\ude00", "a\u0000b", "ключ", "x" * 500)
    val nonAscii = Seq.tabulate(400) { i =>
      (words(rng.nextInt(words.size)) + (i % 13), words(rng.nextInt(words.size)) + words(rng.nextInt(words.size)))
    }
    val cases = Seq(
      "a dominant key"                -> sc.parallelize(dominant, 4).toDF("k", "v"),
      "a dominant key, string values" -> sc.parallelize(dominant.map { case (k, v) => (k, s"s$v") }, 4).toDF("k", "v"),
      "7 slices over 3 rows"          -> sc.parallelize(Seq((1L, 0.5), (1L, 0.5), (2L, -1.0)), 7).toDF("k", "v"),
      "7 slices over 3 string rows"   -> sc.parallelize(Seq((1L, "é"), (1L, "é"), (2L, "")), 7).toDF("k", "v"),
      "non-ASCII keys and values"     -> sc.parallelize(nonAscii, 3).toDF("k", "v"))
    val tuple = Seq(TupSk, IndSk)
    for ((name, df) <- cases; n <- Seq(4, 64, 1024)) {
      val conf = SketchConf(n)
      assert(leftSketches(_.sketchLeft(df, "k", "v", conf), tuple) ==
        leftSketches(OccurrenceReference.sketchLeft(_, df, "k", "v", conf), tuple), s"$name, n = $n")
    }
  }

  test("the left-sketch kernel numbers a key's rows in Spark's (c, vNum, vStr) order, ties in c included") {
    import Ordering.Double.TotalOrdering
    // Rows of two hkeys that tie on c, so that vNum and vStr decide: NULLs
    // first, strings by their UTF-8 bytes ("\ud83d\ude00" after "\uff21",
    // where Java's UTF-16 order puts it first). Each row's own seed s makes
    // its hu tell which j it got.
    val strs = Seq(None, Some(""), Some("\uff21"), Some("\ud83d\ude00"), Some("a"), Some("é"))
    val nums = Seq(None, Some(-1.5), Some(0.0), Some(2.0))
    val rows = for {
      hkey <- Seq(-3L, 7L)
      c    <- Seq(Long.MinValue, 5L)
      vNum <- nums
      vStr <- strs
    } yield LeastTuples.Occurrence(hkey, (hkey, c, vNum, vStr).hashCode.toLong, c, vNum, vStr)
    val window = spark.createDataset(rows).toDF()
      .withColumn("j", row_number().over(Window.partitionBy("hkey").orderBy("c", "vNum", "vStr")))
      .collect().toSeq.map(r => (Hashing.huAt(r.getLong(1), r.getInt(5)), r.getLong(0),
        Option(r.get(3)).map(_.asInstanceOf[Double]), Option(r.getString(4))))
    for (n <- Seq(3, 40, rows.size)) {
      val got = LeastTuples.least(new scala.util.Random(n).shuffle(rows).sortBy(_.hkey).iterator, n)
        .map(r => (r.hu, r.hkey, r.vNum, r.vStr)).toSeq.sorted
      assert(got == window.sorted.take(n), s"n = $n")
    }
  }

  test("TUPSK's and INDSK's left sketches plan no window and no h_u UDF, sort by hkey alone after the exchange, and run defaultParallelism tasks after it") {
    import org.apache.spark.sql.catalyst.expressions.ScalaUDF
    import org.apache.spark.sql.catalyst.plans.logical.{Window => WindowNode}
    import org.apache.spark.sql.execution.{ProjectExec, SortExec, SparkPlan}
    import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
    import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
    val sc = spark.sparkContext
    val df = table(5000, 400, 2, numeric = true, 3)
    for (sk <- Seq(TupSk, IndSk)) {
      val sketch  = sk.sketchLeft(df, "k", "v", SketchConf(64))
      val logical = sketch.queryExecution.optimizedPlan
      assert(logical.collect { case w: WindowNode => w }.isEmpty, s"${sk.name}:\n$logical")
      assert(logical.flatMap(_.expressions).forall(_.find(_.isInstanceOf[ScalaUDF]).isEmpty), s"${sk.name}:\n$logical")
      val physical = sketch.queryExecution.executedPlan match {
        case a: AdaptiveSparkPlanExec => a.inputPlan
        case p                        => p
      }
      val sorts = physical.collect { case s: SortExec => s }
      assert(sorts.size == 1, s"${sk.name}:\n$physical")
      def below(p: SparkPlan): SparkPlan = p match {
        case ProjectExec(_, child) => below(child)
        case other                 => other
      }
      assert(below(sorts.head.child).isInstanceOf[ShuffleExchangeExec], s"${sk.name}:\n$physical")
      assert(sorts.head.sortOrder.map(_.child.references.map(_.name).toSeq) == Seq(Seq("hkey")), s"${sk.name}:\n$physical")
      val jobs   = jobsOf(s"left-tasks-${sk.name}")(sketch.collect())
      val stages = sc.statusTracker.getJobInfo(jobs.max).get.stageIds()
      // The last job's result stage reads the shuffle: it sorts, numbers, hashes and cuts.
      assert(sc.statusTracker.getStageInfo(stages.max).get.numTasks() == sc.defaultParallelism, sk.name)
    }
  }
}
