package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType

/** Featurization functions AGG (Section III-B): derive the augmentation table
  * `T_aug[K_X, X]` from a candidate `T_cand[K_Z, Z]` whose keys repeat.
  */
sealed trait AggFn { def name: String }
object AggFn {
  /** First value seen per key, in row order — CSK's repeated-key handling. */
  case object First extends AggFn { val name = "FIRST" }
  case object Avg   extends AggFn { val name = "AVG"   }
  case object Count extends AggFn { val name = "COUNT" }
  /** Most frequent value; ties broken by smallest value, for determinism. */
  case object Mode  extends AggFn { val name = "MODE"  }
  case object Max   extends AggFn { val name = "MAX"   }
  case object Min   extends AggFn { val name = "MIN"   }
}

object Featurize {

  /** Functions that read the value itself as a number. */
  private val NumericOnly: Set[AggFn] = Set(AggFn.Avg, AggFn.Max, AggFn.Min)

  /** Whether `agg` of `df`'s `value` column is a numeric feature: COUNT
    * always is; every other function keeps the source column's type.
    */
  def numericFeature(df: DataFrame, value: String, agg: AggFn): Boolean =
    agg == AggFn.Count || df.schema(value).dataType.isInstanceOf[NumericType]

  /** Normalize `df`'s (key, value) pair and aggregate it to one row per key:
    * `[k, vNum, vStr]`, the `T_aug` side of every sketch and of the full
    * join. AVG, MAX and MIN of a non-numeric column are rejected rather than
    * turned into NULL features.
    */
  def aggregate(df: DataFrame, key: String, value: String, agg: AggFn): DataFrame = {
    val tpe = df.schema(value).dataType
    require(tpe.isInstanceOf[NumericType] || !NumericOnly(agg),
      s"${agg.name} needs a numeric column, but $value is ${tpe.simpleString}")
    aggregateNorm(Sketch.normalize(df, key, value), agg)
  }

  /** Aggregate a normalized table `[k, vNum, vStr, rid]` to one row per key
    * in one `GROUP BY k`, keeping the normalized value representation:
    * `[k, vNum, vStr]`. FIRST picks the value of the smallest `rid`; MODE
    * breaks ties to the smallest value and counts -0.0 as 0.0.
    */
  def aggregateNorm(norm: DataFrame, agg: AggFn): DataFrame = {
    val noStr = lit(null).cast("string")
    val (vNum, vStr) = agg match {
      case AggFn.First => (min_by(col("vNum"), col("rid")), min_by(col("vStr"), col("rid")))
      // IEEE -0.0 + 0.0 = 0.0: `mode` would otherwise count the two apart.
      case AggFn.Mode  => (mode(col("vNum") + 0.0, deterministic = true),
                           mode(col("vStr"), deterministic = true))
      case AggFn.Avg   => (avg("vNum"), noStr)
      case AggFn.Count => (count(lit(1)).cast("double"), noStr)
      case AggFn.Max   => (max("vNum"), noStr)
      case AggFn.Min   => (min("vNum"), noStr)
    }
    norm.groupBy("k").agg(vNum as "vNum", vStr as "vStr")
  }

  /** The paper's join-aggregation query (Section III-B): left-join the train
    * table with the aggregated candidate, producing `[ky, y, xn, xstr]` (the
    * feature in `xn` if numeric, else in `xstr`; both NULL on a miss). Used
    * by the oracle tests and by full-join (non-sketched) MI estimation.
    */
  def augmentedJoin(train: DataFrame, trainKey: String, trainVal: String,
                    cand: DataFrame, candKey: String, candVal: String,
                    agg: AggFn): DataFrame = {
    val aug = aggregate(cand, candKey, candVal, agg)
      .select(
        col("k") as "kx",
        col("vNum") as "xn",
        col("vStr") as "xstr",
      )
    train
      .select(train(trainKey).cast("string") as "ky", train(trainVal) as "y")
      .join(aug, col("ky") === col("kx"), "left")
      .select(col("ky"), col("y"), col("xn"), col("xstr"))
  }
}
