package repro.stats

/** Special functions needed by entropy / MI estimators.
  *
  * All entropies and MI values in this codebase are in nats (natural log),
  * matching the paper's analytic formulas (e.g. I = -0.5*ln(1 - r^2)).
  */
object SpecialFunctions {

  /** Digamma function psi(x) for x > 0.
    *
    * Uses the recurrence psi(x) = psi(x+1) - 1/x to push the argument above 6,
    * then the asymptotic series. Absolute error < 1e-12 for x >= 1e-6.
    */
  def digamma(x0: Double): Double = {
    require(x0 > 0, s"digamma requires x > 0, got $x0")
    var x = x0
    var acc = 0.0
    while (x < 10.0) { acc -= 1.0 / x; x += 1.0 }
    val inv  = 1.0 / x
    val inv2 = inv * inv
    acc + math.log(x) - 0.5 * inv -
      inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 / 240.0)))
  }

  /** Table of ln(k!) for k in [0, n]. */
  def logFactorials(n: Int): Array[Double] = {
    val lf = new Array[Double](n + 1)
    var k  = 1
    while (k <= n) { lf(k) = lf(k - 1) + math.log(k.toDouble); k += 1 }
    lf
  }
}
