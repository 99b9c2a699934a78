package repro.sketch

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf
import repro.stats.Rng

/** Every scheme samples the candidate side by one rule (Section IV): the AGG
  * of each key, then the n keys of least (h_u, hkey). The oracle states each
  * scheme's hash as the paper does and sorts the aggregated keys on the
  * driver.
  */
class SketchRightSpec extends SparkSpec {
  import spark.implicits._

  /** The paper's h_u of a candidate key, per scheme. */
  private val paperHash: Map[Sketcher, Column] = Map(
    TupSk -> Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1)),
    Csk   -> Hashing.huKey(Hashing.SaltKey, col("k")),
    Lv2Sk -> Hashing.huKey(Hashing.SaltKey, col("k")),
    PriSk -> Hashing.huKey(Hashing.SaltKey, col("k")),
    IndSk -> Hashing.huKey(Hashing.SaltIndRight, col("k")))

  /** A row's fields, each double as its bits, so that -0.0 and 0.0 differ. */
  private def bits(r: Row): Seq[Any] = r.toSeq.map {
    case d: java.lang.Double => java.lang.Double.doubleToRawLongBits(d)
    case other               => other
  }

  /** Each scheme's rows `[hkey, hu, vNum, vStr]` by `rows(sk)`, sorted by (hu, hkey), each double as its bits. */
  private def sorted(rows: Sketcher => Seq[Row]): Map[String, Seq[Seq[Any]]] = {
    import Ordering.Double.TotalOrdering
    Sketcher.all.map(sk => sk.name -> rows(sk).sortBy(r => (r.getDouble(1), r.getLong(0))).map(bits)).toMap
  }

  /** The right sketches of every scheme for `agg`, from one collect of their union. */
  private def sketches(df: DataFrame, agg: AggFn, n: Int): Map[String, Seq[Seq[Any]]] = {
    val rows = Sketcher.all
      .map(sk => sk.sketchRight(df, "k", "v", agg, SketchConf(n)).select(lit(sk.name), col("hkey"), col("hu"), col("vNum"), col("vStr")))
      .reduce(_ union _).collect().toSeq.groupBy(_.getString(0))
    sorted(sk => rows.getOrElse(sk.name, Nil).map(r => Row(r.get(1), r.get(2), r.get(3), r.get(4))))
  }

  /** The oracle for `agg`: each scheme's n least (h_u, hkey) over the
    * aggregated keys, one collect per AGG with every scheme's hash. CSK keeps
    * FIRST whatever `agg` is asked for.
    */
  private def oracle(aggregated: AggFn => Seq[Row], agg: AggFn, n: Int): Map[String, Seq[Seq[Any]]] =
    sorted { sk =>
      val i = Sketcher.all.indexOf(sk)
      aggregated(if (sk == Csk) AggFn.First else agg).map(r => Row(r.get(0), r.get(3 + i), r.get(1), r.get(2)))
    }.map { case (name, rows) => name -> rows.take(n) }

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

  test("every scheme's right sketch is the n least paper hashes of the aggregated keys, for every AGG (scalacheck)") {
    val gen = for {
      rows    <- Gen.choose(1, 800)
      nKeys   <- Gen.oneOf(Gen.choose(1, 10), Gen.choose(50, 400))
      seed    <- Gen.choose(0L, 1000000L)
      numeric <- Gen.oneOf(true, false)
      n       <- Gen.oneOf(1, 8, 64, 1024)
      parts   <- Gen.choose(1, 5)
    } yield (rows, nKeys, seed, numeric, n, parts)
    def holds(rows: Int, nKeys: Int, seed: Long, numeric: Boolean, n: Int, parts: Int): Boolean = {
      val df   = table(rows, nKeys, seed, numeric, parts)
      val aggs: Seq[AggFn] = if (numeric) Seq(AggFn.First, AggFn.Avg, AggFn.Count, AggFn.Mode, AggFn.Max, AggFn.Min)
                 else Seq(AggFn.First, AggFn.Count, AggFn.Mode)
      val aggregated: Map[AggFn, Seq[Row]] = aggs.map { agg =>
        agg -> Featurize.aggregate(df, "k", "v", agg)
          .select(Hashing.hkey(col("k")) +: col("vNum") +: col("vStr") +: Sketcher.all.map(paperHash): _*)
          .collect().toSeq
      }.toMap
      val differ = for {
        agg <- aggs
        got  = sketches(df, agg, n)
        want = oracle(aggregated, agg, n)
        sk  <- Sketcher.all
        if got(sk.name) != want(sk.name)
      } yield s"${sk.name} ${agg.name}"
      if (differ.nonEmpty)
        println(s"right sketches differ for ${differ.mkString(", ")}: $rows rows, $nKeys keys, seed $seed, numeric=$numeric, n=$n, $parts slices")
      differ.isEmpty
    }
    for (numeric <- Seq(true, false)) assert(holds(3000, 300, 1, numeric, 64, 4))
    val prop = Prop.forAll(gen) { case (rows, nKeys, seed, numeric, n, parts) => holds(rows, nKeys, seed, numeric, n, parts) }
    val res  = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(3), prop)
    assert(res.passed, res.status.toString)
  }
}
