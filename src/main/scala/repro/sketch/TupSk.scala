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
object TupSk extends Sketcher("TUPSK", Hashing.huTuple(Hashing.SaltTuple, col("k"), lit(1))) {
  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame =
    LeastTuples(Sketch.normalize(df, key, value), Hashing.SaltTuple, conf.n)

  /** Every candidate's right sketch in one lazy plan: the rows
    * `sketchRight` gives for `features(i)`, with `cand = i`. h_u(⟨k,1⟩) and
    * hkey depend on k alone, so a candidate's n least keys are picked from
    * its normalized rows, before they are aggregated:
    * `dense_rank() OVER (PARTITION BY cand ORDER BY hu, hkey) <= n` keeps
    * every row of those keys (a `row_number` would keep n rows, not n keys).
    * The features that share an AGG are normalized, tagged and unioned, so
    * the plan holds one window and one `GROUP BY (cand, k)` per distinct AGG,
    * not one per feature; the aggregate reads only the kept rows, and the
    * window's `cand` partitioning, with no shuffle of its own. A shared
    * aggregate mixing AGGs would not do: MODE's sort-based fallback would
    * then read every feature's rows. The aggregate groups by hkey and hu as
    * well, which depend on k alone, so each branch hashes its rows once.
    * `dense_rank` numbers distinct (hu, hkey): two keys colliding on both
    * hashes would both be kept, where a `row_number` over the aggregated keys
    * kept an arbitrary one at the n-th place.
    */
  def index(features: Seq[Featurize.Feature], conf: SketchConf): DataFrame = {
    require(features.nonEmpty, "an index needs at least one candidate")
    val byHash = Window.partitionBy("cand").orderBy(col("hu"), col("hkey"))
    val tagged = features.zipWithIndex
    features.map(_.agg).distinct.map { agg =>
      val kept = tagged.collect { case (f, i) if f.agg == agg => Featurize.normalize(f).withColumn("cand", lit(i)) }
        .reduce(_ unionByName _)
        .withColumn("hkey", Hashing.hkey(col("k"))).withColumn("hu", keyHash)
        .withColumn("rank", dense_rank().over(byHash))
        .filter(col("rank") <= conf.n)
      Featurize.aggregateBy(kept, agg, "cand", "k", "hkey", "hu")
    }.reduce(_ unionByName _).select("hkey", "hu", "vNum", "vStr", "cand")
  }
}
