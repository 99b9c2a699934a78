package repro.synth

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Decomposition of generated post-join rows (x_i, y_i) into a joinable table
  * pair (Section V-A, "Decomposition Into Joinable Tables").
  *
  * KeyInd: unique sequential keys — a one-to-one join, keys independent of
  * the data. KeyDep: the join key equals the value of X — a many-to-one join
  * with maximal key-feature dependence (requires discrete X). Both
  * decompositions exactly recover (X, Y) through the left join.
  */
object Decompose {

  sealed trait KeyGen { def name: String }
  case object KeyInd extends KeyGen { val name = "KeyInd" }
  case object KeyDep extends KeyGen { val name = "KeyDep" }
  val keyGens: Seq[KeyGen] = Seq(KeyInd, KeyDep)

  /** Joinable pair: `train[k, y]` (left; keys may repeat under KeyDep) and
    * `cand[k, x]` (right; under KeyDep each key maps to one X value, possibly
    * repeated across rows — the aggregation in the sketcher collapses them).
    */
  final case class Pair(train: DataFrame, cand: DataFrame)

  /** Decompose parallel value arrays: both tables share one key per row. */
  def apply(spark: SparkSession, xs: Array[Double], ys: Array[Double], keyGen: KeyGen): Pair = {
    import spark.implicits._
    require(ys.length == xs.length, "decompose: size mismatch")
    val keys: Seq[Long] = keyGen match {
      case KeyInd => xs.indices.map(_.toLong)
      case KeyDep => xs.toSeq.map { x =>
        require(x == math.rint(x), s"KeyDep requires discrete X, got $x")
        x.toLong
      }
    }
    Pair(keys.zip(ys).toDF("k", "y"), keys.zip(xs).toDF("k", "x"))
  }
}
