package repro.exp

import org.apache.spark.sql.SparkSession
import repro.mi.{EstimatorKind, MI, NumCol}
import repro.sketch.{AggFn, Sketch, TupSk}
import repro.stats.Rng
import repro.synth.{CDUnif, Decompose}

/** Section V-D performance exemplars: as the table size N grows, the full
  * join and full-data MI estimation times grow while the sketch join and
  * sketch-sample estimation stay approximately constant. Absolute numbers are
  * not comparable to the paper's single-threaded in-memory measurements (ours
  * include Spark job scheduling); the *shape* — growth vs. near-constant — is
  * the reproduced claim.
  */
object PerfExp {

  final case class PerfRow(nRows: Int, fullJoinMs: Double, sketchJoinMs: Double,
                           fullMiMs: Double, sketchMiMs: Double)

  private def timeMs[A](reps: Int)(body: => A): Double = {
    body // warm-up
    val times = (0 until reps).map { _ =>
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
    }
    times.sorted.apply(reps / 2) // median
  }

  def run(spark: SparkSession, sizes: Seq[Int] = Seq(5000, 10000, 20000),
          n: Int = 256, seed: Long = 5): Seq[PerfRow] = {
    val conf = Sketch.SketchConf(n)
    sizes.map { nRows =>
      val rng      = new Rng(seed + nRows)
      val m        = 500
      val (xi, yd) = CDUnif.sample(rng, m, nRows)
      val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyInd)
      pair.train.cache(); pair.cand.cache()
      pair.train.count(); pair.cand.count()
      try {
        val left  = TupSk.sketchLeft(pair.train, "k", "y", conf).cache()
        val right = TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf).cache()
        left.count(); right.count()

        val fullJoinMs = timeMs(3) {
          pair.train.join(pair.cand, "k").count()
        }
        val sketchJoinMs = timeMs(3) { Sketch.join(left, right).count() }

        val fullRows = pair.train.join(pair.cand, "k")
          .select("x", "y").collect()
        val fx = fullRows.map(_.getDouble(0)); val fy = fullRows.map(_.getDouble(1))
        val fullMiMs = timeMs(3) {
          MI.estimate(EstimatorKind.MixedKSG, NumCol(fx), NumCol(fy))
        }
        val sample = Sketch.collectSample(Sketch.join(left, right))
        val sketchMiMs = timeMs(3) {
          MI.estimate(EstimatorKind.MixedKSG, sample.x, sample.y)
        }
        left.unpersist(); right.unpersist()
        PerfRow(nRows, fullJoinMs, sketchJoinMs, fullMiMs, sketchMiMs)
      } finally { pair.train.unpersist(); pair.cand.unpersist() }
    }
  }

  def format(rows: Seq[PerfRow]): String = {
    val header = f"${"N"}%8s ${"fullJoinMs"}%11s ${"sketchJoinMs"}%13s ${"fullMiMs"}%9s ${"sketchMiMs"}%11s"
    val lines = rows.map { r =>
      f"${r.nRows}%8d ${r.fullJoinMs}%11.2f ${r.sketchJoinMs}%13.2f ${r.fullMiMs}%9.2f ${r.sketchMiMs}%11.2f"
    }
    (header +: lines).mkString("\n")
  }
}
