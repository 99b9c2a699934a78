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

  /** One size's join timings and the samples its estimators are timed on. */
  private final case class Joins(fullJoinMs: Double, sketchJoinMs: Double,
                                 full: Sketch.Sample, sketch: Sketch.Sample)

  /** Timed runs per measurement; each column is their median. */
  private val Reps = 7

  /** Median time of each body over `Reps` rounds, after one untimed run of
    * each. A round runs every body once, so a change in the host's speed
    * falls on all of them alike.
    */
  private def timeEachMs(bodies: Seq[() => Any]): Seq[Double] = {
    bodies.foreach(_())
    val rounds = Seq.fill(Reps)(bodies.map { body =>
      val t0 = System.nanoTime(); body(); (System.nanoTime() - t0) / 1e6
    })
    bodies.indices.map(b => rounds.map(_(b)).sorted.apply(Reps / 2))
  }

  private def timeMs(body: => Any): Double = timeEachMs(Seq(() => body)).head

  def run(spark: SparkSession, sizes: Seq[Int] = Seq(5000, 10000, 20000),
          n: Int = 256, seed: Long = 5): Seq[PerfRow] = {
    val conf = Sketch.SketchConf(n)
    // Per size: the join timings, then the full-join and sketch-join samples.
    val joins = sizes.map { nRows =>
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

        val fullJoinMs = timeMs {
          pair.train.join(pair.cand, "k").count()
        }
        val sketchJoinMs = timeMs { Sketch.join(left, right).count() }

        val fullRows = pair.train.join(pair.cand, "k")
          .select("x", "y").collect()
        val full   = Sketch.Sample(NumCol(fullRows.map(_.getDouble(0))), NumCol(fullRows.map(_.getDouble(1))))
        val sample = Sketch.collectSample(Sketch.join(left, right))
        left.unpersist(); right.unpersist()
        Joins(fullJoinMs, sketchJoinMs, full, sample)
      } finally { pair.train.unpersist(); pair.cand.unpersist() }
    }

    // The estimators are timed after all Spark work. JIT-compile them first
    // on the largest full join (at least 3 calls and 1 s), so that
    // compilation is not charged to the first size.
    def estimate(s: Sketch.Sample): () => Double =
      () => MI.estimate(EstimatorKind.MixedKSG, s.x, s.y)
    val largest = estimate(joins.map(_.full).maxBy(_.size))
    val warmEnd = System.nanoTime() + 1000000000L
    var calls   = 0
    while (calls < 3 || System.nanoTime() < warmEnd) { largest(); calls += 1 }
    val fullMiMs   = timeEachMs(joins.map(j => estimate(j.full)))
    val sketchMiMs = timeEachMs(joins.map(j => estimate(j.sketch)))

    sizes.indices.map { i =>
      PerfRow(sizes(i), joins(i).fullJoinMs, joins(i).sketchJoinMs, fullMiMs(i), sketchMiMs(i))
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
