package repro.mi

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.Rng
import repro.stats.SpecialFunctions.digamma
import repro.synth.CDUnif

class DcKsgSpec extends AnyFunSuite {
  private def cls(xs: Array[Int]): IndexedSeq[AnyRef] = xs.map(Integer.valueOf(_): AnyRef).toIndexedSeq

  test("DC-KSG recovers CDUnif analytic MI (the Ross benchmark setting)") {
    for (m <- Seq(3, 10, 25)) {
      val (xi, yd) = CDUnif.sample(new Rng(1), m, 4000)
      val est      = DcKsg.mi(cls(xi), yd)
      val truth    = CDUnif.trueMI(m)
      assert(math.abs(est - truth) < 0.15, s"m=$m est=$est truth=$truth")
    }
  }

  test("DC-KSG on independent class/continuous data is ~0") {
    val rng = new Rng(2)
    val xs  = Array.fill(3000)(rng.nextInt(6))
    val ys  = Array.fill(3000)(rng.nextGaussian())
    assert(DcKsg.mi(cls(xs), ys) < 0.05)
  }

  test("DC-KSG grows with class separation") {
    val rng = new Rng(3)
    def sample(sep: Double): Double = {
      val xs = Array.fill(2000)(rng.nextInt(2))
      val ys = xs.map(x => x * sep + rng.nextGaussian())
      DcKsg.mi(cls(xs), ys)
    }
    val weak = sample(0.5); val strong = sample(4.0)
    assert(weak < strong, s"weak=$weak strong=$strong")
    assert(strong > 0.4)
  }

  test("DC-KSG is invariant under class relabeling") {
    val rng = new Rng(4)
    val xs  = Array.fill(1500)(rng.nextInt(4))
    val ys  = xs.map(x => x + 0.3 * rng.nextGaussian())
    val a   = DcKsg.mi(cls(xs), ys)
    val b   = DcKsg.mi(xs.map(x => s"label-${3 - x}": AnyRef).toIndexedSeq, ys)
    assert(math.abs(a - b) < 1e-12)
  }

  test("DC-KSG is invariant under affine transforms of the continuous side") {
    val rng = new Rng(5)
    val xs  = Array.fill(1500)(rng.nextInt(3))
    val ys  = xs.map(x => x + 0.5 * rng.nextGaussian())
    val a   = DcKsg.mi(cls(xs), ys)
    val b   = DcKsg.mi(cls(xs), ys.map(y => -7 * y + 100))
    // Not exactly equal: scaling perturbs which points sit exactly on the
    // k-NN radius, so a handful of boundary counts can differ.
    assert(math.abs(a - b) < 0.02, s"a=$a b=$b")
  }

  test("DC-KSG drops singleton classes without crashing") {
    val rng = new Rng(6)
    val xs  = Array.fill(500)(rng.nextInt(2)) ++ Array(99, 98, 97) // three singletons
    val ys  = xs.map(x => (x % 2) + 0.3 * rng.nextGaussian())
    val est = DcKsg.mi(cls(xs), ys)
    assert(!est.isNaN && est >= 0.0)
  }

  test("DC-KSG with a single class is 0") {
    val rng = new Rng(7)
    val xs  = Array.fill(200)(1)
    val ys  = Array.fill(200)(rng.nextGaussian())
    assert(DcKsg.mi(cls(xs), ys) < 1e-9)
  }

  test("DC-KSG upper bound: cannot exceed ln(#classes) by much") {
    val rng = new Rng(8)
    val xs  = Array.fill(3000)(rng.nextInt(4))
    val ys  = xs.map(x => x * 10.0 + 1e-3 * rng.nextGaussian()) // near-deterministic
    val est = DcKsg.mi(cls(xs), ys)
    assert(est <= math.log(4.0) + 0.15, s"est=$est bound=${math.log(4.0)}")
  }

  test("DC-KSG rejects tiny samples") {
    intercept[IllegalArgumentException](DcKsg.mi(cls(Array(1, 2)), Array(1.0, 2.0)))
  }

  /** The documented formula, scanned literally in O(N²): the oracle. */
  private def scanned(classes: IndexedSeq[AnyRef], y: Array[Double], k: Int): Double = {
    val kept = y.indices.filter(i => classes.count(_ == classes(i)) > 1)
    val n    = kept.size
    if (n <= k) 0.0
    else {
      val terms = kept.map { i =>
        val same = kept.filter(j => j != i && classes(j) == classes(i))
        val ki   = math.min(k, same.size)
        val r    = same.map(j => math.abs(y(j) - y(i))).sorted.apply(ki - 1)
        val m    = kept.count(j => j != i && math.abs(y(j) - y(i)) <= r)
        digamma(ki.toDouble) - digamma(same.size + 1.0) - digamma(math.max(1, m).toDouble)
      }
      math.max(0.0, digamma(n.toDouble) + terms.sum / n)
    }
  }

  test("DC-KSG counts every point at distance exactly r (one-decimal values)") {
    // One-decimal values put points of either class at distance exactly r,
    // where y ± r can round past them. The classes overlap in part, so the
    // estimate is above the clamp at 0 and a miscount shows.
    // About one seed in ten yields such a point; these seeds hold several.
    for (seed <- 101 to 160; k <- 1 to 3) {
      val rng = new Rng(seed)
      val xs  = Array.fill(200)(rng.nextInt(2))
      val ys  = xs.map(x => (x * 400 + rng.nextInt(600)) / 10.0)
      val got = DcKsg.mi(cls(xs), ys, k)
      val ref = scanned(cls(xs), ys, k)
      assert(ref > 0 && math.abs(got - ref) < 1e-12, s"seed=$seed k=$k got=$got scanned=$ref")
    }
  }
}
