package repro.discovery

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.NumericType
import repro.mi.MI
import repro.sketch.{AggFn, Featurize, Sketch, TupSk}

/** The end-to-end discovery query the sketches exist to serve (Section I):
  * given a base table with a target column, rank candidate joinable tables by
  * the estimated MI between their feature column and the target — without
  * materializing any join. The base table is sketched once and joined once
  * with an index of every candidate's sketch; one collect brings back every
  * candidate's sample.
  */
object JoinRanker {

  final case class Candidate(name: String, df: DataFrame, key: String, value: String,
                             agg: AggFn = AggFn.First)

  final case class Ranked(name: String, estimatedMI: Double, sketchJoinSize: Int,
                          estimator: String)

  /** Sketch-joins smaller than this are not estimated: too few rows to rank
    * a candidate by (a ranking policy, stricter than the estimators' own
    * size rule).
    */
  val MinJoin = 10

  /** Rank candidates by TUPSK-estimated MI (descending). Candidates whose
    * sketch-join has fewer than [[MinJoin]] rows rank last with NaN
    * estimates, mirroring the paper's "discard meaningless estimates". The
    * estimator follows the input columns' types, so it is reported even when
    * the sketch-join is empty.
    */
  def rank(train: DataFrame, trainKey: String, target: String,
           candidates: Seq[Candidate], conf: Sketch.SketchConf): Seq[Ranked] = {
    val yNumeric = train.schema(target).dataType.isInstanceOf[NumericType]
    val ranked = candidates.zip(samples(train, trainKey, target, candidates, conf)).map {
      case (c, sample) =>
        val kind = MI.auto(Featurize.numericFeature(c.df, c.value, c.agg), yNumeric)
        val est =
          if (sample.size < MinJoin) Double.NaN
          else MI.estimate(kind, sample.x, sample.y)
        Ranked(c.name, est, sample.size, kind.name)
    }
    ranked.sortBy(r => if (r.estimatedMI.isNaN) Double.NegativeInfinity else r.estimatedMI)(
      Ordering[Double].reverse)
  }

  /** Each candidate's TUPSK sketch-join sample, from one sketch-join of the
    * train sketch with [[TupSk.index]] and one collect; no Spark job runs
    * when there is no candidate. [[Sketch.toSample]] puts each candidate's
    * rows in one order, so the same inputs give the same estimates.
    */
  private[discovery] def samples(train: DataFrame, trainKey: String, target: String,
                                 candidates: Seq[Candidate],
                                 conf: Sketch.SketchConf): Seq[Sketch.Sample] =
    if (candidates.isEmpty) Nil
    else {
      val index = TupSk.index(candidates.map(c => Featurize.Feature(c.df, c.key, c.value, c.agg)), conf)
      val rows = Sketch.join(TupSk.sketchLeft(train, trainKey, target, conf), index)
        .select((Sketch.SampleColumns :+ "cand").map(col): _*)
        .collect()
      val byCand = rows.groupBy(_.getInt(Sketch.SampleColumns.size))
      candidates.indices.map(i => Sketch.toSample(byCand.getOrElse(i, Array.empty[Row])))
    }
}
