package repro.mi

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.Rng

class MiDispatchSpec extends AnyFunSuite {
  private val rng = new Rng(1)
  private def nums(n: Int): NumCol = NumCol(Array.fill(n)(rng.nextDouble()))
  private def strs(n: Int): StrCol = StrCol(Array.fill(n)("s" + rng.nextInt(4)))

  test("auto dispatch follows the paper's type rules") {
    assert(MI.auto(strs(10), strs(10)) == EstimatorKind.MLE)
    assert(MI.auto(nums(10), nums(10)) == EstimatorKind.MixedKSG)
    assert(MI.auto(strs(10), nums(10)) == EstimatorKind.DCKSG)
    assert(MI.auto(nums(10), strs(10)) == EstimatorKind.DCKSG)
    assert(MI.auto(xNumeric = false, yNumeric = false) == EstimatorKind.MLE)
    assert(MI.auto(xNumeric = true, yNumeric = true) == EstimatorKind.MixedKSG)
    assert(MI.auto(xNumeric = true, yNumeric = false) == EstimatorKind.DCKSG)
    assert(MI.auto(xNumeric = false, yNumeric = true) == EstimatorKind.DCKSG)
  }

  test("estimate rejects mismatched sample sizes") {
    intercept[IllegalArgumentException](
      MI.estimate(EstimatorKind.MLE, nums(5), nums(6)))
  }

  test("k-NN estimators return NaN on samples too small for k") {
    assert(MI.estimate(EstimatorKind.MixedKSG, nums(4), nums(4)).isNaN)
    assert(MI.estimate(EstimatorKind.DCKSG, strs(4), nums(4)).isNaN)
    // Exact boundary: n = k+1 is too small, n = k+2 is estimated.
    for (k <- Seq(1, MI.DefaultK)) {
      assert(MI.estimate(EstimatorKind.MixedKSG, nums(k + 1), nums(k + 1), k).isNaN)
      assert(!MI.estimate(EstimatorKind.MixedKSG, nums(k + 2), nums(k + 2), k).isNaN)
      assert(MI.estimate(EstimatorKind.DCKSG, strs(k + 1), nums(k + 1), k).isNaN)
      assert(!MI.estimate(EstimatorKind.DCKSG, strs(k + 2), nums(k + 2), k).isNaN)
    }
    // MLE needs one point.
    assert(MI.estimate(EstimatorKind.MLE, strs(0), strs(0)).isNaN)
    assert(!MI.estimate(EstimatorKind.MLE, strs(1), strs(1)).isNaN)
  }

  test("k-NN estimators reject a column they cannot use, naming the estimator and both types") {
    val mixed = intercept[IllegalArgumentException](MI.estimate(EstimatorKind.MixedKSG, strs(10), nums(10)))
    assert(mixed.getMessage.contains("MixedKSG") && mixed.getMessage.contains("StrCol")
      && mixed.getMessage.contains("NumCol"))
    val dc = intercept[IllegalArgumentException](MI.estimate(EstimatorKind.DCKSG, strs(10), strs(10)))
    assert(dc.getMessage.contains("DC-KSG") && dc.getMessage.contains("StrCol"))
    // The size rule comes first: a sample below minSize is NaN whatever its types.
    assert(MI.estimate(EstimatorKind.MixedKSG, strs(4), nums(4)).isNaN)
    assert(MI.estimate(EstimatorKind.DCKSG, strs(4), strs(4)).isNaN)
  }

  test("MLE works through the dispatcher on strings and on numerics") {
    val x = StrCol(Array("a", "a", "b", "b"))
    assert(MI.estimate(EstimatorKind.MLE, x, x) > 0.69)
    val y = NumCol(Array(1.0, 1.0, 2.0, 2.0))
    assert(MI.estimate(EstimatorKind.MLE, y, y) > 0.69)
  }

  test("DC-KSG dispatch orients the pair so the continuous side is numeric") {
    val rng2 = new Rng(2)
    val cl   = Array.fill(2000)(rng2.nextInt(3))
    val co   = cl.map(c => c * 3.0 + rng2.nextGaussian())
    val a = MI.estimate(EstimatorKind.DCKSG, StrCol(cl.map("c" + _)), NumCol(co))
    val b = MI.estimate(EstimatorKind.DCKSG, NumCol(co), StrCol(cl.map("c" + _)))
    assert(math.abs(a - b) < 1e-12)
    assert(a > 0.3)
  }

  test("DC-KSG through the dispatcher accepts numeric-numeric (discrete x)") {
    val rng2 = new Rng(3)
    val x    = Array.fill(1000)(rng2.nextInt(3).toDouble)
    val y    = x.map(v => v + 0.2 * rng2.nextGaussian())
    assert(MI.estimate(EstimatorKind.DCKSG, NumCol(x), NumCol(y)) > 0.5)
  }

  test("estimator kinds expose stable names") {
    assert(EstimatorKind.MLE.name == "MLE")
    assert(EstimatorKind.MixedKSG.name == "MixedKSG")
    assert(EstimatorKind.DCKSG.name == "DC-KSG")
  }

  test("ColData reports size and type") {
    assert(nums(7).size == 7 && nums(1).isNumeric)
    assert(strs(7).size == 7 && !strs(1).isNumeric)
  }
}
