package repro.sketch

import org.apache.spark.sql.DataFrame
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
                  conf: SketchConf): DataFrame = {
    val aggd = Featurize.aggregate(df, key, value, agg)
    val pre  = Sketcher.pre(aggd, Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1)))
    Sketch.topN(pre, conf.n)
  }
}
