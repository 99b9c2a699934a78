package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("mean of empty is NaN; otherwise arithmetic mean") {
    assert(Stats.mean(Nil).isNaN)
    assert(Stats.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
  }

  test("mse computes average squared error") {
    assert(Stats.mse(Seq(1.0, 2.0), Seq(0.0, 4.0)) == (1.0 + 4.0) / 2)
  }

  test("mse rejects mismatched sizes") {
    intercept[IllegalArgumentException](Stats.mse(Seq(1.0), Seq(1.0, 2.0)))
  }

  test("pearson of a perfect linear relation is +/-1") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(math.abs(Stats.pearson(xs, xs.map(2 * _ + 1)) - 1.0) < 1e-12)
    assert(math.abs(Stats.pearson(xs, xs.map(-3 * _)) + 1.0) < 1e-12)
  }

  test("pearson of a constant column is NaN") {
    assert(Stats.pearson(Seq(1.0, 1.0, 1.0), Seq(1.0, 2.0, 3.0)).isNaN)
  }

  test("ranks: average ranks on ties") {
    assert(Stats.ranks(Seq(10.0, 20.0, 20.0, 30.0)).toSeq == Seq(1.0, 2.5, 2.5, 4.0))
    assert(Stats.ranks(Seq(5.0, 5.0, 5.0)).toSeq == Seq(2.0, 2.0, 2.0))
  }

  test("spearman is 1 for any monotone transform") {
    val xs = Seq(0.1, 0.7, 1.5, 3.0, 9.0)
    val ys = xs.map(x => math.log(x) * 100 - 5)
    assert(math.abs(Stats.spearman(xs, ys) - 1.0) < 1e-12)
  }

  test("spearman is -1 for a reversed ranking") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(math.abs(Stats.spearman(xs, xs.reverse) + 1.0) < 1e-12)
  }

  test("spearman is ~0 for an uncorrelated scramble") {
    val rng = new Rng(3)
    val xs  = Seq.fill(2000)(rng.nextDouble())
    val ys  = Seq.fill(2000)(rng.nextDouble())
    assert(math.abs(Stats.spearman(xs, ys)) < 0.1)
  }
}
