package repro.sketch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType
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
    /** Single-pass bounded-memory typed Aggregator (the UDAF path). */
    case object Udaf extends TopNImpl
    /** Catalyst `TakeOrderedAndProject` via orderBy+limit (cross-check path). */
    case object SortLimit extends TopNImpl
  }

  /** Sketching parameters: the single size parameter n the paper advertises. */
  final case class SketchConf(n: Int) {
    require(n > 0, "sketch size must be positive")
  }

  /** Normalize an input table's (key, value) pair to columns
    * `[k: string, vNum: double?, vStr: string?, rid: long]`, dropping rows
    * with NULL key or value (left-join misses are discarded per Section III).
    * `rid` is a per-partition-stable row id used to define occurrence order.
    * A NaN or ±Inf value fails the query that reads it, rather than
    * corrupting k-NN distances.
    */
  def normalize(df: DataFrame, key: String, value: String): DataFrame = {
    val numeric = df.schema(value).dataType.isInstanceOf[NumericType]
    val v       = df(value).cast("double")
    val vNum    =
      if (numeric) when(isnan(v) || abs(v) === Double.PositiveInfinity,
          raise_error(lit(s"column $value holds NaN or an infinite value"))).otherwise(v)
      else lit(null).cast("double")
    val vStr    = if (numeric) lit(null).cast("string") else df(value).cast("string")
    df.filter(df(key).isNotNull && df(value).isNotNull)
      .select(
        df(key).cast("string") as "k",
        vNum as "vNum",
        vStr as "vStr",
        monotonically_increasing_id() as "rid",
      )
  }

  /** Occurrence index j of each key (1-based): the ⟨k, j⟩ sampling frame. */
  def withOccurrence(norm: DataFrame): DataFrame =
    norm.withColumn("j", row_number().over(Window.partitionBy("k").orderBy("rid")))

  /** Keep the n rows with minimum (hu, hkey) from a pre-sketch DataFrame
    * `[hkey, hu, vNum, vStr]`. Both implementations are deterministic and
    * tested to agree exactly; the sketchers use the UDAF.
    */
  def topN(pre: DataFrame, n: Int, impl: TopNImpl = TopNImpl.Udaf): DataFrame = impl match {
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

  /** Merge two sketches into a sample of the join (Section IV, "Approach
    * Overview"): inner-join on the hashed key. The left (train) sketch holds
    * the target Y, the right (candidate) sketch the feature X.
    */
  def join(left: DataFrame, right: DataFrame): DataFrame =
    left
      .select(col("hkey"), col("vNum") as "yNum", col("vStr") as "yStr")
      .join(
        right.select(col("hkey"), col("vNum") as "xNum", col("vStr") as "xStr"),
        Seq("hkey"),
      )

  /** A collected sketch-join sample ready for an MI estimator. */
  final case class Sample(x: ColData, y: ColData) { def size: Int = x.size }

  /** Collect the joined sketch into typed columns. A column is numeric iff
    * all its string slots are null (normalization guarantees homogeneity).
    */
  def collectSample(joined: DataFrame): Sample = {
    val rows = joined.select("xNum", "xStr", "yNum", "yStr").collect()
    def colOf(numIdx: Int, strIdx: Int): ColData = {
      val numeric = rows.forall(_.isNullAt(strIdx))
      if (numeric) NumCol(rows.map(_.getDouble(numIdx)))
      else StrCol(rows.map(_.getString(strIdx)))
    }
    Sample(x = colOf(0, 1), y = colOf(2, 3))
  }
}

/** One sketch tuple; `hu` orders the k-minimum selection. */
final case class SketchRow(hkey: Long, hu: Double, vNum: Option[Double], vStr: Option[String])

/** A sketching scheme: how to sample the train (left) table, whose keys may
  * repeat, and the candidate (right) table, whose repeated keys are
  * aggregated into the `T_aug` the join needs (Section IV).
  */
trait Sketcher {
  def name: String
  def sketchLeft(df: DataFrame, key: String, value: String, conf: Sketch.SketchConf): DataFrame
  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: Sketch.SketchConf): DataFrame
}

object Sketcher {
  /** All schemes evaluated in the paper's Tables I/II. */
  def all: Seq[Sketcher] = Seq(Csk, IndSk, Lv2Sk, PriSk, TupSk)

  /** Build a pre-sketch `[hkey, hu, vNum, vStr]` from normalized rows. */
  private[sketch] def pre(norm: DataFrame, hu: Column): DataFrame =
    norm.select(
      repro.core.Hashing.hkey(col("k")) as "hkey",
      hu as "hu",
      col("vNum"),
      col("vStr"),
    )
}
