package repro.exp

import org.apache.spark.sql.SparkSession
import repro.mi.{EstimatorKind, MI, NumCol}
import repro.sketch.{AggFn, Sketch, Sketcher}
import repro.stats.{Rng, Stats}
import repro.synth.{CDUnif, Decompose, Trinomial}

/** Table I experiment (Section V-B5): for each synthetic dataset (Trinomial,
  * CDUnif), each key-generation process (KeyInd, KeyDep) and each sketching
  * scheme, estimate MI from sketches of size n and compare against the
  * analytically known true MI. Reports average sketch-join size (absolute and
  * as % of n) and MSE, aggregated exactly as the paper's Table I does —
  * across key distributions, distribution parameters m, and the estimators
  * applicable to each dataset's data types.
  */
object TableIExp {

  /** One (trial, keyGen, sketch, estimator) measurement. */
  final case class Rec(dataset: String, trial: Int, m: Int, keyGen: String,
                       sketch: String, estimator: String,
                       trueMI: Double, est: Double, joinSize: Int)

  /** One output row of Table I. */
  final case class SummaryRow(dataset: String, sketch: String,
                              avgJoinSize: Double, pct: Double, mse: Double,
                              nEstimates: Int)

  val NRows     = 10000 // full-table size used throughout Section V-B
  val SketchN   = 256
  /** Std-dev of the Gaussian perturbation that makes one Trinomial marginal
    * continuous so DC-KSG applies (Section V-A, "Distribution Parameters").
    */
  val PerturbSd = 1e-3

  /** Every record of the sweep; the defaults produced `bench/results/table1.txt`. */
  def run(spark: SparkSession, n: Int = SketchN,
          triTrialsPerM: Int = 4, cdTrials: Int = 20,
          seed: Long = 7, mValues: Seq[Int] = Trinomial.MValues): Seq[Rec] = {
    val conf = Sketch.SketchConf(n)
    val out  = Seq.newBuilder[Rec]

    // ---- Trinomial: m sweep, estimators MLE / MixedKSG / DC-KSG ----
    var trial = 0
    for (m <- mValues; _ <- 0 until triTrialsPerM) {
      val rng    = new Rng(seed * 1000 + trial)
      val params = Trinomial.solveParams(rng, m)
      val truth  = Trinomial.exactMI(params)
      val (xi, yi) = Trinomial.sample(rng, params, NRows)
      val xs = xi.map(_.toDouble); val ys = yi.map(_.toDouble)
      out ++= runTrial(spark, "Trinomial", trial, m, xs, ys, truth, conf, rng,
        Seq(EstimatorKind.MLE, EstimatorKind.MixedKSG, EstimatorKind.DCKSG))
      trial += 1
    }

    // ---- CDUnif: m ~ U[2, 1000], estimators MixedKSG / DC-KSG ----
    for (t <- 0 until cdTrials) {
      val rng = new Rng(seed * 2000 + t)
      val m   = 2 + rng.nextInt(999)
      val truth = CDUnif.trueMI(m)
      val (xi, yd) = CDUnif.sample(rng, m, NRows)
      val xs = xi.map(_.toDouble)
      out ++= runTrial(spark, "CDUnif", trial, m, xs, yd, truth, conf, rng,
        Seq(EstimatorKind.MixedKSG, EstimatorKind.DCKSG))
      trial += 1
    }
    out.result()
  }

  private def runTrial(spark: SparkSession, dataset: String, trial: Int, m: Int,
                       xs: Array[Double], ys: Array[Double], truth: Double,
                       conf: Sketch.SketchConf, rng: Rng,
                       estimators: Seq[EstimatorKind]): Seq[Rec] = {
    val out = Seq.newBuilder[Rec]
    for (kg <- Decompose.keyGens) {
      val pair = Decompose(spark, xs, ys, kg)
      pair.train.cache(); pair.cand.cache()
      try {
        for (sk <- Sketcher.all) {
          val left   = sk.sketchLeft(pair.train, "k", "y", conf)
          val right  = sk.sketchRight(pair.cand, "k", "x", AggFn.First, conf)
          val sample = Sketch.collectJoin(left, right)
          val sx     = sample.x.asInstanceOf[NumCol].values
          val sy     = sample.y.asInstanceOf[NumCol].values
          for (est <- estimators) {
            // DC-KSG on Trinomial requires one continuous marginal: perturb Y
            // with low-magnitude Gaussian noise (MI invariant, ties broken).
            val syUse =
              if (est == EstimatorKind.DCKSG && dataset == "Trinomial")
                sy.map(_ + PerturbSd * rng.nextGaussian())
              else sy
            // A discovery system must score every candidate: a join too small
            // to estimate carries no information, so it scores 0 — this is
            // what blows up INDSK's MSE in the paper's Table I.
            val raw   = MI.estimate(est, NumCol(sx), NumCol(syUse))
            val value = if (raw.isNaN) 0.0 else raw
            out += Rec(dataset, trial, m, kg.name, sk.name, est.name, truth, value, sample.size)
          }
        }
      } finally { pair.train.unpersist(); pair.cand.unpersist() }
    }
    out.result()
  }

  /** Aggregate per (dataset, sketch), as in Table I. Join sizes are averaged
    * once per (trial, keyGen); MSE averages over all estimator records with a
    * defined estimate.
    */
  def summarize(recs: Seq[Rec], n: Int = SketchN): Seq[SummaryRow] = {
    recs.groupBy(r => (r.dataset, r.sketch)).toSeq.sortBy(_._1).map {
      case ((ds, sk), rs) =>
        val joinSizes = rs.groupBy(r => (r.trial, r.keyGen)).values.map(_.head.joinSize.toDouble).toSeq
        val ests      = rs.filter(r => !r.est.isNaN)
        val mse       = Stats.mse(ests.map(_.est), ests.map(_.trueMI))
        val avgJoin   = Stats.mean(joinSizes)
        SummaryRow(ds, sk, avgJoin, 100.0 * avgJoin / n, mse, ests.size)
    }
  }

  def format(rows: Seq[SummaryRow]): String = {
    val header = f"${"Dataset"}%-10s ${"Sketch"}%-6s ${"AvgJoinSize"}%12s ${"%"}%7s ${"MSE"}%8s ${"#est"}%6s"
    val lines = rows.map { r =>
      f"${r.dataset}%-10s ${r.sketch}%-6s ${r.avgJoinSize}%12.1f ${r.pct}%7.2f ${r.mse}%8.2f ${r.nEstimates}%6d"
    }
    (header +: lines).mkString("\n")
  }
}
