package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** TUPSK — the paper's proposed tuple-based sampling sketch (Section IV-B).
  *
  * Left (train) table: each row is identified by the occurrence tuple ⟨k, j⟩
  * (the j-th row carrying key k); rows with the n minimum h_u(⟨k,j⟩) are
  * kept. Every row has inclusion probability 1/N regardless of the key
  * frequency distribution, so the recovered join sample is uniform.
  *
  * Right (candidate) table: repeated keys are aggregated with AGG, then the
  * n minimum h_u(⟨k,1⟩) keys are kept — hashing ⟨k,1⟩ with the same salt as
  * the left side is what coordinates the two sketches.
  */
object TupSk extends Sketcher {
  val name = "TUPSK"

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame = {
    val withJ = Sketch.withOccurrence(Sketch.normalize(df, key, value))
    val pre   = Sketcher.pre(withJ, Hashing.huTuple(Hashing.SaltTuple, col("k"), col("j")))
    Sketch.topN(pre, conf.n)
  }

  def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                  conf: SketchConf): DataFrame =
    Sketcher.right(df, key, value, agg, rightHu, conf)

  /** Every candidate's right sketch in one lazy plan: the rows
    * `sketchRight` gives for `features(i)`, with `cand = i`. The candidates
    * are aggregated by [[Featurize.aggregateAll]], one `GROUP BY (cand, k)`
    * per distinct AGG, and each keeps its n minimum (hu, hkey) by a window
    * over `cand`, so one sketch-join against the index serves every
    * candidate.
    */
  def index(features: Seq[Featurize.Feature], conf: SketchConf): DataFrame = {
    require(features.nonEmpty, "an index needs at least one candidate")
    val byHash = Window.partitionBy("cand").orderBy(col("hu"), col("hkey"))
    Sketcher.pre(Featurize.aggregateAll(features), rightHu, col("cand"))
      .withColumn("rank", row_number().over(byHash))
      .filter(col("rank") <= conf.n)
      .drop("rank")
  }

  /** The right side's hash: h_u(⟨k,1⟩), one tuple per aggregated key. */
  private val rightHu = Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1))
}
