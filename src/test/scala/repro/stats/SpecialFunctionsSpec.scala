package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.LogGamma.logGamma
import repro.stats.SpecialFunctions._

class SpecialFunctionsSpec extends AnyFunSuite {
  private val Gamma = 0.5772156649015329 // Euler-Mascheroni

  test("digamma(1) = -gamma")  { assert(math.abs(digamma(1.0) + Gamma) < 1e-10) }
  test("digamma(2) = 1 - gamma") { assert(math.abs(digamma(2.0) - (1 - Gamma)) < 1e-10) }
  test("digamma(0.5) = -gamma - 2 ln 2") {
    assert(math.abs(digamma(0.5) - (-Gamma - 2 * math.log(2))) < 1e-10)
  }
  test("digamma(10) matches reference") {
    assert(math.abs(digamma(10.0) - 2.251752589066721) < 1e-10)
  }
  test("digamma recurrence psi(x+1) = psi(x) + 1/x") {
    for (x <- Seq(0.3, 1.7, 4.2, 11.5, 100.0))
      assert(math.abs(digamma(x + 1) - (digamma(x) + 1.0 / x)) < 1e-10, s"x=$x")
  }
  test("digamma is increasing on the positive axis") {
    val xs = Seq(0.1, 0.5, 1.0, 2.0, 5.0, 50.0)
    xs.zip(xs.tail).foreach { case (a, b) => assert(digamma(a) < digamma(b)) }
  }
  test("digamma rejects non-positive input") {
    intercept[IllegalArgumentException](digamma(0.0))
    intercept[IllegalArgumentException](digamma(-1.0))
  }
  test("digamma asymptotics: psi(x) ~ ln x for large x") {
    assert(math.abs(digamma(1e6) - math.log(1e6)) < 1e-6)
  }

  test("logGamma at integers equals ln((n-1)!)") {
    var f = 1.0
    for (nn <- 2 to 12) {
      f *= (nn - 1)
      assert(math.abs(logGamma(nn.toDouble) - math.log(f)) < 1e-9, s"n=$nn")
    }
  }
  test("logGamma(0.5) = ln sqrt(pi)") {
    assert(math.abs(logGamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-9)
  }
  test("logGamma recurrence lg(x+1) = lg(x) + ln x") {
    for (x <- Seq(0.3, 1.1, 2.5, 7.7))
      assert(math.abs(logGamma(x + 1) - (logGamma(x) + math.log(x))) < 1e-9, s"x=$x")
  }
  test("digamma is the derivative of logGamma (finite differences)") {
    for (x <- Seq(0.8, 2.3, 6.9)) {
      val h   = 1e-6
      val num = (logGamma(x + h) - logGamma(x - h)) / (2 * h)
      assert(math.abs(num - digamma(x)) < 1e-5, s"x=$x")
    }
  }

  test("logFactorials table matches logGamma") {
    val lf = logFactorials(20)
    assert(lf(0) == 0.0)
    for (k <- 1 to 20)
      assert(math.abs(lf(k) - logGamma(k + 1.0)) < 1e-9, s"k=$k")
  }
}
