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
    * `sketchRight` gives for `features(i)`, with `cand = i`. h_u(⟨k,1⟩) and
    * hkey depend on k alone, so a candidate's n least keys are picked from
    * its normalized rows, before they are aggregated:
    * `dense_rank() OVER (PARTITION BY cand ORDER BY hu, hkey) <= n` keeps
    * every row of those keys (a `row_number` would keep n rows, not n keys).
    * [[Featurize.aggregateAll]] then aggregates only those rows, one
    * `GROUP BY (cand, k)` per distinct AGG, which reads the window's `cand`
    * partitioning and needs no shuffle of its own. `dense_rank` numbers
    * distinct (hu, hkey): two keys colliding on both hashes would both be
    * kept, where a `row_number` over the aggregated keys kept an arbitrary
    * one at the n-th place.
    */
  def index(features: Seq[Featurize.Feature], conf: SketchConf): DataFrame = {
    require(features.nonEmpty, "an index needs at least one candidate")
    val byHash = Window.partitionBy("cand").orderBy(col("hu"), col("hkey"))
    def leastKeys(rows: DataFrame): DataFrame =
      rows.withColumn("hkey", Hashing.hkey(col("k"))).withColumn("hu", rightHu)
        .withColumn("rank", dense_rank().over(byHash))
        .filter(col("rank") <= conf.n)
    Sketcher.pre(Featurize.aggregateAll(features, leastKeys), rightHu, col("cand"))
  }

  /** The right side's hash: h_u(⟨k,1⟩), one tuple per aggregated key. */
  private val rightHu = Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1))
}
