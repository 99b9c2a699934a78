package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** CSK — Correlation Sketches (Santos et al., SIGMOD 2021) extended to MI
  * (Section V, "Sketching Methods"). CSK does not prescribe repeated-key
  * handling, so on both tables we keep FIRST's value per key and then the n
  * keys with minimum h_u(k). Coordination is full (same key-level hash on
  * both sides), but the left table's key-frequency structure — which the
  * left join would replicate into the feature column — is lost, which is the
  * estimation bias this baseline demonstrates.
  */
object Csk extends Sketcher("CSK", Hashing.huKey(Hashing.SaltKey, col("k"))) {
  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame =
    sketchRight(df, key, value, AggFn.First, conf)

  // agg intentionally ignored: CSK keeps one of the key's values rather than
  // applying an aggregation that would modify the original values.
  override def sketchRight(df: DataFrame, key: String, value: String, agg: AggFn,
                           conf: SketchConf): DataFrame = super.sketchRight(df, key, value, AggFn.First, conf)
}
