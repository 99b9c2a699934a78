package repro.stats

/** The oracle of [[SpecialFunctions.digamma]] (its derivative) and of
  * [[SpecialFunctions.logFactorials]] (ln k! = ln Γ(k + 1)); no program path
  * needs Γ itself.
  */
object LogGamma {

  /** Natural log of Gamma(x) for x > 0 (Lanczos approximation, g=7, n=9). */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma requires x > 0, got $x")
    val g = 7.0
    val c = Array(
      0.99999999999980993, 676.5203681218851, -1259.1392167224028,
      771.32342877765313, -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)
    if (x < 0.5) {
      // Reflection formula.
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val xm = x - 1.0
      var a  = c(0)
      val t  = xm + g + 0.5
      var i  = 1
      while (i < 9) { a += c(i) / (xm + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (xm + 0.5) * math.log(t) - t + math.log(a)
    }
  }
}
