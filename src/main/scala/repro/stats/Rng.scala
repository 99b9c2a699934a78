package repro.stats

import java.util.SplittableRandom

/** Deterministic random generation for the synthetic benchmarks.
  *
  * A thin wrapper over [[java.util.SplittableRandom]] plus the samplers the
  * paper's data-generation process needs (binomial, Gaussian perturbation).
  * Every experiment derives its streams from explicit seeds so that reruns
  * are reproducible.
  */
final class Rng(seed: Long) {
  private val r = new SplittableRandom(seed)

  def nextDouble(): Double = r.nextDouble()

  /** Uniform double in [lo, hi). */
  def uniform(lo: Double, hi: Double): Double = lo + (hi - lo) * r.nextDouble()

  /** Uniform int in [0, n). */
  def nextInt(n: Int): Int = r.nextInt(n)

  /** Standard Gaussian via Box-Muller (SplittableRandom has no nextGaussian in 8-compat). */
  def nextGaussian(): Double = {
    var u1 = r.nextDouble()
    while (u1 <= 1e-300) u1 = r.nextDouble()
    val u2 = r.nextDouble()
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Binomial(n, p) by direct Bernoulli summation — exact, fine for n <= ~4096. */
  def binomial(n: Int, p: Double): Int = {
    require(p >= 0 && p <= 1, s"binomial p out of range: $p")
    var c = 0; var i = 0
    while (i < n) { if (r.nextDouble() < p) c += 1; i += 1 }
    c
  }

  /** Zipf-distributed rank in [1, cdf.length]: inverse-CDF sampling by binary
    * search, O(log n) per draw, over a CDF precomputed by [[Rng.zipfCdf]].
    */
  def zipf(cdf: Array[Double]): Int = {
    val u  = r.nextDouble()
    var lo = 0; var hi = cdf.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) < u) lo = mid + 1 else hi = mid
    }
    lo + 1
  }
}

object Rng {
  /** Precompute the CDF over ranks 1..nKeys for Zipf(alpha). */
  def zipfCdf(nKeys: Int, alpha: Double): Array[Double] = {
    val w = Array.tabulate(nKeys)(i => 1.0 / math.pow(i + 1.0, alpha))
    val s = w.sum
    val cdf = new Array[Double](nKeys)
    var acc = 0.0
    var i   = 0
    while (i < nKeys) { acc += w(i) / s; cdf(i) = acc; i += 1 }
    cdf(nKeys - 1) = 1.0
    cdf
  }
}
