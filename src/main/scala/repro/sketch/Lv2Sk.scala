package repro.sketch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.sketch.Sketch.SketchConf

/** The two-level schemes (LV2SK and PRISK), which differ only in the
  * first-level key order. Aggregation makes the candidate's keys unique, so
  * both reduce to uniform KMV over keys on that side: the n least h_u(k),
  * the `keyHash` the first level hashes the train table's keys with.
  */
private[sketch] abstract class TwoLevel(name: String) extends Sketcher(name, Hashing.huKey(Hashing.SaltKey, col("k"))) {

  /** The first level's order of a key with hash `hu` and `nk` rows. */
  def keyOrder(hu: Column, nk: Column): Column

  def sketchLeft(df: DataFrame, key: String, value: String, conf: SketchConf): DataFrame = {
    val norm = Sketch.normalize(df, key, value)
    val n    = conf.n

    // Level 1: select n keys by the scheme's key order. The table size N is
    // a one-row count of the rows, cross-joined onto the chosen keys, so
    // building the sketch runs no job and no step gathers every key's count.
    val counts = norm.groupBy("k").agg(count(lit(1)) as "Nk").withColumn("huKey", keyHash)
    val chosen = counts
      .orderBy(keyOrder(col("huKey"), col("Nk")).asc, col("k").asc)
      .limit(n)
      .crossJoin(norm.agg(count(lit(1)) as "N"))

    // Level 2: each chosen key's n_k = max(1, floor(n·N_k/N)) occurrences of
    // least h_u(⟨k, j⟩). Not its first n_k in content order: equal rows share
    // a content hash, so those would be kept or dropped all together. The ≤ n
    // chosen keys are broadcast and joined before the occurrence window's
    // hkey shuffle, so only their rows cross it.
    val byHash = Window.partitionBy("hkey")
      .orderBy(Hashing.huTuple(Hashing.SaltSecondLevel, col("k"), col("j")), col("j"))
    val kept = Sketch.withOccurrence(norm.join(broadcast(chosen), Seq("k")))
      .withColumn("rank", row_number().over(byHash))
      .filter(col("rank") <= greatest(lit(1L), floor(lit(n.toLong) * col("Nk") / col("N"))))

    Sketcher.pre(kept, col("huKey"))
  }
}

/** LV2SK — the two-level sampling baseline (Section IV-A).
  *
  * Level 1: coordinated KMV sampling — keep the n join keys with minimum
  * h_u(k). Level 2: for each kept key k with frequency N_k in a table of N
  * rows, keep n_k = max(1, floor(n·N_k/N)) of its rows, ranked by an
  * independent hash of ⟨k, j⟩. Sketch size is in [n, 2n] whenever the key
  * domain has at least n values. Row inclusion probability depends on the
  * key-frequency distribution — the non-uniformity TUPSK removes.
  */
object Lv2Sk extends TwoLevel("LV2SK") {
  def keyOrder(hu: Column, nk: Column): Column = hu
}

/** PRISK — two-level sketch whose first level is frequency-weighted priority
  * sampling (Section V, "Sketching Methods"): rank by h_u(k)/N_k, i.e. take
  * the n keys with the largest priority N_k/u_k (Duffield-Lund-Thorup).
  * Results track LV2SK closely.
  */
object PriSk extends TwoLevel("PRISK") {
  def keyOrder(hu: Column, nk: Column): Column = hu / nk.cast("double")
}
