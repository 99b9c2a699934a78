package repro.exp

import org.apache.spark.sql.functions._
import org.apache.spark.sql.SparkSession
import repro.mi.{ColData, EstimatorKind, MI, NumCol, StrCol}
import repro.sketch.{AggFn, Featurize, Lv2Sk, PriSk, Sketch, Sketcher, TupSk}
import repro.stats.Stats
import repro.synth.OpenDataGen

/** Table II experiment (Section V-C1): over a collection of table pairs,
  * compare sketch MI estimates (n = 1024) against the MI estimated on the
  * full join (the only available ground-truth proxy on real data). Reports
  * per sketching scheme the average sketch-join size, Spearman's rank
  * correlation between sketch and full-join estimates, and MSE — keeping only
  * estimates whose sketch-join exceeds 100 rows, as the paper does.
  */
object TableIIExp {

  final case class Rec(collection: String, pairId: Int, sketch: String, estimator: String,
                       fullJoinSize: Long, fullMI: Double,
                       sketchJoinSize: Int, sketchMI: Double)

  final case class SummaryRow(collection: String, sketch: String,
                              avgJoinSize: Double, spearman: Double, mse: Double,
                              nPairs: Int)

  val SketchN     = 1024
  val MinJoinSize = 100

  val sketchers: Seq[Sketcher] = Seq(Lv2Sk, PriSk, TupSk)

  def run(spark: SparkSession, collection: String, nPairs: Int = 120,
          n: Int = SketchN, seed: Long = 11): Seq[Rec] = {
    val conf = Sketch.SketchConf(n)
    val out  = Seq.newBuilder[Rec]
    for (spec <- OpenDataGen.specs(collection, nPairs, seed)) {
      val pair = OpenDataGen.generate(spark, spec)
      pair.train.cache(); pair.cand.cache()
      try {
        val agg  = if (spec.xNumeric) AggFn.Avg else AggFn.Mode
        val kind = MI.auto(spec.xNumeric, spec.yNumeric)

        val (fullSize, fullMI) = fullJoinMI(pair, agg, kind)

        // Sketch estimates.
        for (sk <- sketchers) {
          val left   = sk.sketchLeft(pair.train, "k", "y", conf)
          val right  = sk.sketchRight(pair.cand, "k", "x", agg, conf)
          val sample = Sketch.collectJoin(left, right)
          val est    = MI.estimate(kind, sample.x, sample.y)
          out += Rec(collection, spec.id, sk.name, kind.name, fullSize, fullMI, sample.size, est)
        }
      } finally { pair.train.unpersist(); pair.cand.unpersist() }
    }
    out.result()
  }

  /** The reference a sketch estimate is scored against: `kind` applied to
    * every row of the full featurized left join, misses discarded, as
    * (join size, MI).
    */
  private[exp] def fullJoinMI(pair: OpenDataGen.TablePair, agg: AggFn,
                              kind: EstimatorKind): (Int, Double) = {
    val spec = pair.spec
    val xCol = if (spec.xNumeric) "xn" else "xstr"
    val rows = Featurize.augmentedJoin(pair.train, "k", "y", pair.cand, "k", "x", agg)
      .filter(col(xCol).isNotNull)
      .select(col(xCol), col("y"))
      .collect()
    def column(i: Int, numeric: Boolean): ColData =
      if (numeric) NumCol(rows.map(_.getDouble(i))) else StrCol(rows.map(_.getString(i)))
    (rows.length, MI.estimate(kind, column(0, spec.xNumeric), column(1, spec.yNumeric)))
  }

  /** Aggregate per sketch over pairs with sketch-join > 100 and defined
    * estimates on both sides, as in Table II.
    */
  def summarize(recs: Seq[Rec]): Seq[SummaryRow] = {
    recs.groupBy(r => (r.collection, r.sketch)).toSeq.sortBy(_._1).map {
      case ((coll, sk), rs0) =>
        val rs = rs0.filter(r =>
          r.sketchJoinSize > MinJoinSize && !r.fullMI.isNaN && !r.sketchMI.isNaN)
        val est  = rs.map(_.sketchMI)
        val ref  = rs.map(_.fullMI)
        SummaryRow(coll, sk,
          avgJoinSize = Stats.mean(rs.map(_.sketchJoinSize.toDouble)),
          spearman    = Stats.spearman(est, ref),
          mse         = Stats.mse(est, ref),
          nPairs      = rs.size)
    }
  }

  def format(rows: Seq[SummaryRow]): String = {
    val header = f"${"Dataset"}%-8s ${"Sketch"}%-6s ${"AvgJoinSize"}%12s ${"SpearmanR"}%10s ${"MSE"}%8s ${"#pairs"}%7s"
    val lines = rows.map { r =>
      f"${r.collection}%-8s ${r.sketch}%-6s ${r.avgJoinSize}%12.1f ${r.spearman}%10.2f ${r.mse}%8.2f ${r.nPairs}%7d"
    }
    (header +: lines).mkString("\n")
  }
}
