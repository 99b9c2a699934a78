package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
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

  /** One size's cached pair and TUPSK sketches. */
  private final case class Prepared(pair: Decompose.Pair, left: DataFrame, right: DataFrame) {
    def fullJoin: DataFrame   = pair.train.join(pair.cand, "k")
    def sketchJoin: DataFrame = Sketch.join(left, right)
    def cached: Seq[DataFrame] = Seq(pair.train, pair.cand, left, right)
  }

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

  def run(spark: SparkSession, sizes: Seq[Int] = Seq(5000, 10000, 20000),
          n: Int = 256, seed: Long = 5): Seq[PerfRow] = {
    val conf = Sketch.SketchConf(n)
    // Every size's pair and sketches are cached first, so that the joins are
    // timed once Spark is warm, round robin over the sizes.
    val prepared = sizes.map { nRows =>
      val rng      = new Rng(seed + nRows)
      val m        = 500
      val (xi, yd) = CDUnif.sample(rng, m, nRows)
      val pair     = Decompose(spark, xi.map(_.toDouble), yd, Decompose.KeyInd)
      pair.train.cache(); pair.cand.cache()
      val p = Prepared(pair, TupSk.sketchLeft(pair.train, "k", "y", conf).cache(),
        TupSk.sketchRight(pair.cand, "k", "x", AggFn.First, conf).cache())
      p.cached.foreach(_.count())
      p
    }
    // The join times of every size, then each size's full-join and
    // sketch-join samples.
    val (fullJoinMs, sketchJoinMs, samples) =
      try {
        val fullJoinMs   = timeEachMs(prepared.map(p => () => p.fullJoin.count()))
        val sketchJoinMs = timeEachMs(prepared.map(p => () => p.sketchJoin.count()))
        val samples = prepared.map { p =>
          val rows = p.fullJoin.select("x", "y").collect()
          (Sketch.Sample(NumCol(rows.map(_.getDouble(0))), NumCol(rows.map(_.getDouble(1)))),
           Sketch.collectSample(p.sketchJoin))
        }
        (fullJoinMs, sketchJoinMs, samples)
      } finally prepared.flatMap(_.cached).foreach(_.unpersist())

    // The estimators are timed after all Spark work. JIT-compile them first
    // on the largest full join (at least 3 calls and 1 s), so that
    // compilation is not charged to the first size.
    def estimate(s: Sketch.Sample): () => Double =
      () => MI.estimate(EstimatorKind.MixedKSG, s.x, s.y)
    val largest = estimate(samples.map(_._1).maxBy(_.size))
    val warmEnd = System.nanoTime() + 1000000000L
    var calls   = 0
    while (calls < 3 || System.nanoTime() < warmEnd) { largest(); calls += 1 }
    val fullMiMs   = timeEachMs(samples.map(s => estimate(s._1)))
    val sketchMiMs = timeEachMs(samples.map(s => estimate(s._2)))

    sizes.indices.map { i =>
      PerfRow(sizes(i), fullJoinMs(i), sketchJoinMs(i), fullMiMs(i), sketchMiMs(i))
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
