package repro.sketch

import org.apache.spark.sql.{DataFrame, functions}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType

/** Featurization functions AGG (Section III-B): derive the augmentation table
  * `T_aug[K_X, X]` from a candidate `T_cand[K_Z, Z]` whose keys repeat.
  */
sealed trait AggFn { def name: String }
object AggFn {
  /** The value of the key's least row in [[Sketch.contentOrder]]: CSK's
    * "first value seen" in a table, which has no row order of its own.
    */
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

  /** A candidate's feature: `agg` of `df`'s `value` column per `key`. */
  final case class Feature(df: DataFrame, key: String, value: String, agg: AggFn)

  /** Normalize `df`'s (key, value) pair and aggregate it to one row per key:
    * `[k, vNum, vStr]`, the `T_aug` side of every sketch and of the full
    * join. AVG, MAX and MIN of a non-numeric column are rejected rather than
    * turned into NULL features.
    */
  def aggregate(df: DataFrame, key: String, value: String, agg: AggFn): DataFrame =
    aggregateNorm(normalize(Feature(df, key, value, agg)), agg)

  /** Every feature aggregated to one row per (cand, key) that `select`
    * keeps: `[cand, k, vNum, vStr]`, where `cand` is the feature's index in
    * `features` and each (cand, k) row is what [[aggregate]] gives for that
    * feature. The features that share an AGG are normalized, tagged with
    * `cand` and unioned; `select` picks rows of that union
    * `[k, vNum, vStr, cand]`, and must keep or drop a (cand, k)'s rows
    * together; one `GROUP BY (cand, k)` then aggregates only those rows. So
    * the plan holds one aggregate per distinct AGG, not one per feature. A
    * shared aggregate mixing AGGs would not do: MODE's sort-based fallback
    * would then read every feature's rows.
    */
  def aggregateAll(features: Seq[Feature], select: DataFrame => DataFrame): DataFrame = {
    val tagged = features.zipWithIndex
    features.map(_.agg).distinct.map { agg =>
      val group = tagged.collect { case (f, i) if f.agg == agg => normalize(f).withColumn("cand", lit(i)) }
      aggregateBy(select(group.reduce(_ unionByName _)), agg, "cand", "k")
    }.reduce(_ unionByName _)
  }

  /** Aggregate a normalized table `[k, vNum, vStr]` to one row per key
    * in one `GROUP BY k`, keeping the normalized value representation:
    * `[k, vNum, vStr]`.
    */
  def aggregateNorm(norm: DataFrame, agg: AggFn): DataFrame = aggregateBy(norm, agg, "k")

  /** [[Sketch.normalize]] of a feature's (key, value) pair, once its AGG is
    * known to accept the column's type.
    */
  private def normalize(f: Feature): DataFrame = {
    val tpe = f.df.schema(f.value).dataType
    require(tpe.isInstanceOf[NumericType] || !NumericOnly(f.agg),
      s"${f.agg.name} needs a numeric column, but ${f.value} is ${tpe.simpleString}")
    Sketch.normalize(f.df, f.key, f.value)
  }

  /** `agg` of normalized rows `[…keys, vNum, vStr]` in one
    * `GROUP BY keys`: `[…keys, vNum, vStr]`. FIRST picks the value of the
    * least row in [[Sketch.contentOrder]]; MODE breaks ties to the smallest
    * value; AVG sums each key's values in ascending order.
    */
  private def aggregateBy(norm: DataFrame, agg: AggFn, keys: String*): DataFrame = {
    val noStr  = lit(null).cast("string")
    val first  = struct(Sketch.contentOrder: _*)
    val (vNum, vStr) = agg match {
      case AggFn.First => (min_by(col("vNum"), first), min_by(col("vStr"), first))
      case AggFn.Mode  => (mode(col("vNum"), deterministic = true),
                           mode(col("vStr"), deterministic = true))
      // Sorted: `avg` sums in arrival order, whose last bits move with partitioning.
      case AggFn.Avg   => (functions.aggregate(array_sort(collect_list("vNum")), lit(0.0), _ + _) / count(lit(1)), noStr)
      case AggFn.Count => (count(lit(1)).cast("double"), noStr)
      case AggFn.Max   => (max("vNum"), noStr)
      case AggFn.Min   => (min("vNum"), noStr)
    }
    norm.groupBy(keys.head, keys.tail: _*).agg(vNum as "vNum", vStr as "vStr")
  }

  /** The paper's join-aggregation query (Section III-B): left-join the train
    * table with the aggregated candidate, producing
    * `[ky: string, y, xn: double, xstr: string]` (the feature in `xn` if
    * numeric, else in `xstr`; both NULL on a miss). Both sides pass
    * [[Sketch.normalize]]'s contract: a train row with a NULL key or target
    * is dropped, a NaN or ±Inf value fails the query, and `y` is DOUBLE for
    * a numeric target, else STRING. Used by the oracle tests and by
    * full-join (non-sketched) MI estimation.
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
    val y = if (train.schema(trainVal).dataType.isInstanceOf[NumericType]) "vNum" else "vStr"
    Sketch.normalize(train, trainKey, trainVal)
      .select(col("k") as "ky", col(y) as "y")
      .join(aug, col("ky") === col("kx"), "left")
      .select(col("ky"), col("y"), col("xn"), col("xstr"))
  }
}
