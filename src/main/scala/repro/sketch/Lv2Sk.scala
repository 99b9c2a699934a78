package repro.sketch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** LV2SK — the two-level sampling baseline (Section IV-A).
  *
  * Level 1: coordinated KMV sampling — keep the n join keys with minimum
  * h_u(k). Level 2: for each kept key k with frequency N_k in a table of N
  * rows, keep n_k = max(1, floor(n·N_k/N)) of its rows, ranked by an
  * independent hash of ⟨k, j⟩. Sketch size is in [n, 2n] whenever the key
  * domain has at least n values. Row inclusion probability depends on the
  * key-frequency distribution — the non-uniformity TUPSK removes.
  */
object Lv2Sk extends Sketcher {
  val name = "LV2SK"

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame =
    TwoLevel.sketchLeft(df, key, value, conf, TwoLevel.uniformKeyOrder)

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: SketchConf): DataFrame =
    TwoLevel.sketchRight(df, key, value, agg, conf)
}

/** Shared machinery for the two-level schemes (LV2SK and PRISK), which differ
  * only in the first-level key-selection order.
  */
private[sketch] object TwoLevel {

  /** LV2SK first level: keys ranked by h_u(k) alone (uniform KMV). */
  def uniformKeyOrder(hu: Column, nk: Column): Column = hu

  /** PRISK first level: priority sampling — rank by h_u(k)/N_k, i.e. take the
    * n keys with the largest priority N_k/u_k (Duffield-Lund-Thorup).
    */
  def priorityKeyOrder(hu: Column, nk: Column): Column = hu / nk.cast("double")

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf,
                 keyOrder: (Column, Column) => Column): DataFrame = {
    val norm = Sketch.normalize(df, key, value)
    val n    = conf.n

    // Level 1: select n keys by the scheme's key order. The table size N is
    // the sum of the per-key counts, cross-joined onto the chosen keys, so
    // building the sketch runs no job and no step gathers every key's count.
    val counts = norm.groupBy("k").agg(count(lit(1)) as "Nk")
      .withColumn("huKey", Hashing.huKey(Hashing.SaltKey, col("k")))
    val chosen = counts
      .orderBy(keyOrder(col("huKey"), col("Nk")).asc, col("k").asc)
      .limit(n)
      .crossJoin(counts.agg(sum("Nk") as "N"))

    // Level 2: each chosen key's n_k = max(1, floor(n·N_k/N)) occurrences of
    // least h_u(⟨k, j⟩). Not its first n_k in content order: equal rows share
    // a content hash, so those would be kept or dropped all together. The ≤ n
    // chosen keys are broadcast, so both windows read only their rows, in the
    // occurrence window's hkey partitions.
    val byHash = Window.partitionBy("hkey")
      .orderBy(Hashing.huTuple(Hashing.SaltSecondLevel, col("k"), col("j")), col("j"))
    val kept = Sketch.numberOccurrences(Sketch.byHkey(norm, col("*")).join(broadcast(chosen), Seq("k")))
      .withColumn("rank", row_number().over(byHash))
      .filter(col("rank") <= greatest(lit(1L), floor(lit(n.toLong) * col("Nk") / col("N"))))

    Sketcher.pre(kept, col("huKey"))
  }

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: SketchConf): DataFrame = {
    // Aggregation makes keys unique, so both two-level schemes reduce to
    // uniform KMV over keys (all weights 1) on the candidate side.
    Sketcher.right(df, key, value, agg, Hashing.huKey(Hashing.SaltKey, col("k")), conf)
  }
}

/** PRISK — two-level sketch whose first level is frequency-weighted priority
  * sampling (Section V, "Sketching Methods"). Results track LV2SK closely.
  */
object PriSk extends Sketcher {
  val name = "PRISK"

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame =
    TwoLevel.sketchLeft(df, key, value, conf, TwoLevel.priorityKeyOrder)

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: SketchConf): DataFrame =
    TwoLevel.sketchRight(df, key, value, agg, conf)
}
