package repro.sketch

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** INDSK — independent Bernoulli sampling baseline (Section V, "Sketching
  * Methods"): each table keeps n uniformly random rows chosen by hashes with
  * *different* salts, so the samples are uncoordinated. Joining two such
  * samples recovers quadratically fewer join rows (Section IV), which is the
  * failure mode this baseline demonstrates.
  */
object IndSk extends Sketcher("INDSK", Hashing.huKey(Hashing.SaltIndRight, col("k"))) {
  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame =
    LeastTuples(Sketch.normalize(df, key, value), Hashing.SaltIndLeft, conf.n)
}
