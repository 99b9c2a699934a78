package repro.sketch

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DecimalType, DoubleType, FloatType, NumericType}
import repro.core.Hashing
import repro.mi.{ColData, NumCol, StrCol}

/** A sketch is a DataFrame with schema
  * `[hkey: long, hu: double, vNum: double?, vStr: string?]` — the paper's
  * tuples ⟨h(k), x_k⟩ plus the h_u value used for sampling (kept for
  * diagnostics). Exactly one of vNum/vStr is non-null per table, determined
  * by the sketched column's type.
  */
object Sketch {

  /** How the n-minimum-hash selection is executed. */
  sealed trait TopNImpl
  object TopNImpl {
    /** Catalyst `TakeOrderedAndProject` via orderBy+limit: the program's path. */
    case object SortLimit extends TopNImpl
    /** The typed [[KMinAggregator]] (a UDAF): the oracle the tests hold
      * SortLimit to, and the path the benchmark's staged TUPSK times.
      */
    case object Udaf extends TopNImpl
  }

  /** Sketching parameters: the single size parameter n the paper advertises. */
  final case class SketchConf(n: Int) {
    require(n > 0, "sketch size must be positive")
  }

  /** `df`'s join key as a string. An integral FLOAT, DOUBLE or DECIMAL key
    * (below 1e18 in magnitude) prints as the integer, "1" and not "1.0", so
    * that it joins the same INT or LONG key; any other key is cast as it is.
    */
  def keyString(df: DataFrame, key: String): Column = {
    val k = df(key)
    df.schema(key).dataType match {
      case FloatType | DoubleType | _: DecimalType =>
        when(abs(k) < 1e18 && k === floor(k), k.cast("long").cast("string")).otherwise(k.cast("string"))
      case _ => k.cast("string")
    }
  }

  /** Normalize an input table's (key, value) pair to columns
    * `[k: string, vNum: double?, vStr: string?]` (k from [[keyString]]),
    * dropping rows with NULL key or value (left-join misses are discarded per
    * Section III). A NaN or ±Inf value fails the query that reads it, rather
    * than corrupting k-NN distances; -0.0 becomes 0.0 (IEEE -0.0 + 0.0 = 0.0),
    * so that values equal in SQL are equal rows.
    */
  def normalize(df: DataFrame, key: String, value: String): DataFrame = {
    val numeric = df.schema(value).dataType.isInstanceOf[NumericType]
    val v       = df(value).cast("double")
    val vNum    =
      if (numeric) when(isnan(v) || abs(v) === Double.PositiveInfinity,
          raise_error(lit(s"column $value holds NaN or an infinite value"))).otherwise(v + 0.0)
      else lit(null).cast("double")
    val vStr    = if (numeric) lit(null).cast("string") else df(value).cast("string")
    df.filter(df(key).isNotNull && df(value).isNotNull)
      .select(keyString(df, key) as "k", vNum as "vNum", vStr as "vStr")
  }

  /** An order of a key's normalized rows by their content alone, not by how
    * the table is partitioned: `(xxhash64(k, vNum, vStr), vNum, vStr)`. Only
    * equal rows tie. Led by the hash, its first row is a pseudo-random value.
    */
  val contentOrder: Seq[Column] = Seq(xxhash64(col("k"), col("vNum"), col("vStr")), col("vNum"), col("vStr"))

  /** Occurrence index j of each key (1-based) in [[contentOrder]]: the ⟨k, j⟩
    * sampling frame, with the key's hash `hkey` carried. After [[byHkey]]'s
    * shuffle the rows are numbered `PARTITION BY hkey ORDER BY c, vNum, vStr`,
    * so the sort compares longs; keys whose hkeys collide are numbered as one
    * key, as they already share a sketch-join. LV2SK and PRISK call this;
    * TUPSK and INDSK number the frame inside [[LeastTuples]].
    */
  def withOccurrence(norm: DataFrame): DataFrame =
    byHkey(norm, col("*"))
      .withColumn("j", row_number().over(Window.partitionBy("hkey").orderBy(col("c") +: contentOrder.tail: _*)))
      .drop("c")

  /** The `carried` columns of `rows` with `hkey` and the content hash `c`
    * (the head of [[contentOrder]]), all computed once per row in one
    * projection before the shuffle, in `defaultParallelism` partitions by
    * hkey: one numbering task per core. Adaptive execution would merge a
    * small table's shuffle into partitions of at least 1 MB, and number the
    * rows on fewer tasks than cores.
    */
  private[sketch] def byHkey(rows: DataFrame, carried: Column*): DataFrame =
    rows.select(carried :+ (Hashing.hkey(col("k")) as "hkey") :+ (contentOrder.head as "c"): _*)
      .repartition(rows.sparkSession.sparkContext.defaultParallelism, col("hkey"))

  /** Keep the n rows with minimum (hu, hkey) from a pre-sketch DataFrame
    * `[hkey, hu, vNum, vStr]`. Both implementations are deterministic and
    * tested to agree exactly; the sketchers use SortLimit.
    */
  def topN(pre: DataFrame, n: Int, impl: TopNImpl = TopNImpl.SortLimit): DataFrame = impl match {
    case TopNImpl.SortLimit =>
      pre.orderBy(col("hu").asc, col("hkey").asc).limit(n)
    case TopNImpl.Udaf =>
      val spark = pre.sparkSession
      import spark.implicits._
      pre
        .select(col("hkey"), col("hu"), col("vNum"), col("vStr"))
        .as[SketchRow]
        .select(new KMinAggregator(n).toColumn)
        .flatMap(_.rows)
        .toDF()
  }

  /** The sketch-join as a Spark query: inner-join on the hashed key, the
    * left (train) sketch holding the target Y, the right (candidate) sketch
    * the feature X. Every right column but `hu` is carried through. The
    * program joins on the driver ([[collectJoin]]); this and [[collectSample]]
    * stay in `src/main` because the benchmark's staged paths name them, and
    * they are the oracle the tests hold the driver-side join to.
    */
  def join(left: DataFrame, right: DataFrame): DataFrame =
    left
      .select(col("hkey"), col("vNum") as "yNum", col("vStr") as "yStr")
      .join(right.drop("hu").withColumnsRenamed(Map("vNum" -> "xNum", "vStr" -> "xStr")), Seq("hkey"))

  /** A collected sketch-join sample ready for an MI estimator. */
  final case class Sample(x: ColData, y: ColData) { def size: Int = x.size }

  /** The sketch-join columns a [[Sample]] is read from, in [[toSample]]'s order. */
  val SampleColumns: Seq[String] = Seq("xNum", "xStr", "yNum", "yStr", "hkey")

  /** Collect a [[join]] into typed columns: with it, the test oracle of [[collectJoin]]. */
  def collectSample(joined: DataFrame): Sample =
    toSample(joined.select(SampleColumns.map(col): _*).collect())

  /** A left sketch and any right sketches tagged by an INT column
    * `cand` ≥ 0, from one collect of their union: the left sketch's rows and
    * each `cand`'s rows, all `[hkey, vNum, vStr, cand]`. It carries the
    * sketches' rows, at most (C + 1)·n for C right sketches, and not their
    * join.
    */
  def collectSketches(left: DataFrame, rights: Option[DataFrame]): (Array[Row], Map[Int, Array[Row]]) = {
    val cols   = Seq(col("hkey"), col("vNum"), col("vStr"), col("cand"))
    val byCand = (left.withColumn("cand", lit(-1)) +: rights.toSeq).map(_.select(cols: _*))
      .reduce(_ unionByName _).collect().groupBy(_.getInt(3))
    (byCand.getOrElse(-1, Array.empty[Row]), byCand - -1)
  }

  /** Merge two collected sketches, rows `[hkey, vNum, vStr, …]`, into a
    * sample of the join (Section IV, "Approach Overview"): a hash-join on
    * hkey on the driver, the left (train) sketch holding the target Y and the
    * right (candidate) sketch the feature X. A key repeated on either side
    * pairs every row with every row. [[toSample]] orders the rows, so the
    * sample is [[collectSample]] of [[join]] bit for bit.
    */
  def joinSample(left: Array[Row], right: Array[Row]): Sample = {
    val byKey = right.groupBy(_.getLong(0))
    toSample(for {
      l <- left
      r <- byKey.getOrElse(l.getLong(0), Array.empty[Row])
    } yield Row(r.get(1), r.get(2), l.get(1), l.get(2), l.getLong(0)))
  }

  /** The sketch-join sample of two sketches: one collect, joined on the driver. */
  def collectJoin(left: DataFrame, right: DataFrame): Sample = {
    val (l, rights) = collectSketches(left, Some(right.withColumn("cand", lit(0))))
    joinSample(l, rights.getOrElse(0, Array.empty[Row]))
  }

  /** Typed columns from sketch-join rows that start with [[SampleColumns]].
    * A column is numeric iff all its string slots are null (normalization
    * guarantees homogeneity). Rows are sorted by (hkey, y), in which only equal
    * rows tie (a right sketch holds one row per hkey): arrival order is lost.
    */
  def toSample(rows: Array[Row]): Sample = {
    import Ordering.Double.TotalOrdering
    val sorted = rows.sortBy(r =>
      (r.getLong(4), if (r.isNullAt(2)) 0.0 else r.getDouble(2), Option(r.getString(3))))
    def colOf(numIdx: Int, strIdx: Int): ColData = {
      val numeric = sorted.forall(_.isNullAt(strIdx))
      if (numeric) NumCol(sorted.map(_.getDouble(numIdx)))
      else StrCol(sorted.map(_.getString(strIdx)))
    }
    Sample(x = colOf(0, 1), y = colOf(2, 3))
  }
}

/** One sketch tuple; `hu` orders the k-minimum selection. */
final case class SketchRow(hkey: Long, hu: Double, vNum: Option[Double], vStr: Option[String])

/** A sketching scheme (Section IV): how it samples the train (left) table,
  * whose keys may repeat, and the hash `keyHash` of a key `k` by which it
  * samples the candidate (right) table. Every scheme samples that side alike:
  * repeated keys are aggregated into the `T_aug` the join needs, and the n
  * keys of least (`keyHash`, hkey) are kept.
  */
abstract class Sketcher(val name: String, val keyHash: Column) {
  def sketchLeft(df: DataFrame, key: String, value: String, conf: Sketch.SketchConf): DataFrame

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: Sketch.SketchConf): DataFrame = {
    val aggregated = Featurize.aggregate(df, key, value, agg).withColumn("hkey", Hashing.hkey(col("k")))
    Sketch.topN(Sketcher.pre(aggregated, keyHash), conf.n)
  }
}

object Sketcher {
  /** All schemes evaluated in the paper's Tables I/II. */
  def all: Seq[Sketcher] = Seq(Csk, IndSk, Lv2Sk, PriSk, TupSk)

  /** Build a pre-sketch `[hkey, hu, vNum, vStr]` from normalized rows that carry their hkey. */
  private[sketch] def pre(rows: DataFrame, hu: Column): DataFrame =
    rows.select(col("hkey"), hu as "hu", col("vNum"), col("vStr"))
}
