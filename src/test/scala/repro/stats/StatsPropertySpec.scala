package repro.stats

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** ScalaCheck properties for the statistics helpers. */
class StatsPropertySpec extends AnyFunSuite {

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  private val genVec: Gen[List[Double]] =
    Gen.nonEmptyListOf(Gen.chooseNum(-1e6, 1e6)).map(_.map(v => math.rint(v * 8) / 8))

  test("ranks sum to n(n+1)/2") {
    check(Prop.forAll(genVec) { xs =>
      val n = xs.size
      math.abs(Stats.ranks(xs).sum - n * (n + 1) / 2.0) < 1e-6 * n
    })
  }

  test("ranks are within [1, n]") {
    check(Prop.forAll(genVec) { xs =>
      Stats.ranks(xs).forall(r => r >= 1.0 && r <= xs.size)
    })
  }

  test("ranks respect the order of distinct values") {
    check(Prop.forAll(genVec) { xs0 =>
      val xs = xs0.toVector
      val r  = Stats.ranks(xs)
      xs.indices.forall(i => xs.indices.forall(j =>
        !(xs(i) < xs(j)) || r(i) < r(j)))
    })
  }

  test("equal values get equal ranks") {
    check(Prop.forAll(genVec) { xs0 =>
      val xs = xs0.toVector
      val r  = Stats.ranks(xs)
      xs.indices.forall(i => xs.indices.forall(j =>
        xs(i) != xs(j) || r(i) == r(j)))
    })
  }

  test("spearman is bounded by [-1, 1] and symmetric") {
    val genPair = for {
      xs <- genVec.suchThat(_.size >= 2)
      ys <- Gen.listOfN(xs.size, Gen.chooseNum(-1e6, 1e6))
    } yield (xs, ys)
    check(Prop.forAll(genPair) { case (xs, ys) =>
      val r = Stats.spearman(xs, ys)
      r.isNaN || (r >= -1.0 - 1e-9 && r <= 1.0 + 1e-9 &&
        math.abs(r - Stats.spearman(ys, xs)) < 1e-9)
    })
  }

  test("mse is zero iff the sequences match") {
    check(Prop.forAll(genVec) { xs =>
      Stats.mse(xs, xs) == 0.0
    })
  }

  test("pearson is invariant under positive affine transforms") {
    check(Prop.forAll(genVec.suchThat(v => v.size >= 3 && v.distinct.size >= 2)) { xs =>
      val ys = xs.map(x => 2 * x + 3)
      val a  = Stats.pearson(xs, ys)
      math.abs(a - 1.0) < 1e-6
    })
  }

  test("fib hash always lands in [0,1) (property)") {
    check(Prop.forAll(Gen.chooseNum(Long.MinValue, Long.MaxValue)) { z =>
      val u = repro.core.Hashing.fib(z)
      u >= 0.0 && u < 1.0
    })
  }

  test("digamma recurrence holds on random positive reals (property)") {
    check(Prop.forAll(Gen.chooseNum(0.01, 500.0)) { x =>
      math.abs(SpecialFunctions.digamma(x + 1) - (SpecialFunctions.digamma(x) + 1.0 / x)) < 1e-8
    })
  }

  test("logGamma convexity: midpoint below average (property)") {
    check(Prop.forAll(Gen.chooseNum(0.1, 100.0), Gen.chooseNum(0.1, 100.0)) { (a, b) =>
      val mid = LogGamma.logGamma((a + b) / 2)
      mid <= (LogGamma.logGamma(a) + LogGamma.logGamma(b)) / 2 + 1e-9
    })
  }
}
