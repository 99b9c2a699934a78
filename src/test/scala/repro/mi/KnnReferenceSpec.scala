package repro.mi

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.Rng
import repro.stats.SpecialFunctions.digamma

/** `Ksg` and `MixedKsg` run on the shared O(N log N) `Knn` kernel. These
  * are the self-contained O(N^2) per-estimator loops it replaced, kept as
  * oracles: the estimates must agree bit for bit, ties, signed zeros and
  * infinities included.
  */
object KnnReference {

  def ksg(xs: Array[Double], ys: Array[Double], k: Int): Double = {
    val n   = xs.length
    var acc = 0.0
    val knn = new Array[Double](k)
    var i   = 0
    while (i < n) {
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      var j = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xs(i)), math.abs(ys(j) - ys(i)))
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      val eps = knn(k - 1)
      var nx  = 0
      var ny  = 0
      j = 0
      while (j < n) {
        if (j != i) {
          if (math.abs(xs(j) - xs(i)) < eps) nx += 1
          if (math.abs(ys(j) - ys(i)) < eps) ny += 1
        }
        j += 1
      }
      acc += digamma(nx + 1.0) + digamma(ny + 1.0)
      i += 1
    }
    math.max(0.0, digamma(k.toDouble) + digamma(n.toDouble) - acc / n)
  }

  def mixedKsg(xs: Array[Double], ys: Array[Double], k: Int): Double = {
    val n    = xs.length
    val logN = math.log(n.toDouble)
    var acc  = 0.0
    val knn  = new Array[Double](k)
    var i    = 0
    while (i < n) {
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      var j = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xs(i)), math.abs(ys(j) - ys(i)))
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      val rho = knn(k - 1)
      var kp  = 1
      var nx  = 1
      var ny  = 1
      j = 0
      while (j < n) {
        if (j != i) {
          val dx = math.abs(xs(j) - xs(i))
          val dy = math.abs(ys(j) - ys(i))
          if (rho == 0.0) {
            if (dx == 0.0 && dy == 0.0) kp += 1
            if (dx == 0.0) nx += 1
            if (dy == 0.0) ny += 1
          } else {
            if (dx < rho) nx += 1
            if (dy < rho) ny += 1
          }
        }
        j += 1
      }
      val kTilde = if (rho == 0.0) kp else k
      acc += digamma(kTilde.toDouble) + logN - digamma(nx.toDouble) - digamma(ny.toDouble)
      i += 1
    }
    math.max(0.0, acc / n)
  }
}

class KnnReferenceSpec extends AnyFunSuite {

  private def continuous(rng: Rng, n: Int): Array[Double] = Array.fill(n)(rng.nextGaussian())
  /** Few distinct values, so exact ties (and rho = 0 points) are common. */
  private def discrete(rng: Rng, n: Int): Array[Double] = Array.fill(n)(rng.nextInt(4).toDouble)

  private val shapes: Seq[(String, (Rng, Int) => (Array[Double], Array[Double]))] = Seq(
    "continuous"      -> ((r, n) => { val x = continuous(r, n); (x, x.map(_ + r.nextGaussian())) }),
    "discrete x"      -> ((r, n) => { val x = discrete(r, n); (x, x.map(_ + r.nextGaussian())) }),
    "discrete y"      -> ((r, n) => (continuous(r, n), discrete(r, n))),
    "both discrete"   -> ((r, n) => { val x = discrete(r, n); (x, x.map(v => (v + r.nextInt(2)) % 4)) }),
    "with infinities" -> ((r, n) => {
      val x = discrete(r, n); val y = continuous(r, n)
      x(0) = Double.PositiveInfinity; x(n - 1) = Double.PositiveInfinity
      y(1) = Double.NegativeInfinity
      (x, y)
    }),
    // The full-join shape of CDUnif (m = 100): the kernel must walk y.
    "CDUnif-like"     -> ((r, n) => {
      val x = Array.fill(n)(r.nextInt(100).toDouble); (x, x.map(_ + 2 * r.nextDouble()))
    }),
    "signed zeros"    -> ((r, n) => {
      def zeros() = Array.fill(n)(
        if (r.nextInt(3) == 0) r.nextInt(3) - 1.0 else if (r.nextInt(2) == 0) 0.0 else -0.0)
      (zeros(), zeros())
    }),
  )

  private def assertMatches(xs: Array[Double], ys: Array[Double], k: Int): Unit = {
    val n = xs.length
    assert(java.lang.Double.compare(Ksg.mi(xs, ys, k), KnnReference.ksg(xs, ys, k)) == 0, s"KSG k=$k n=$n")
    assert(java.lang.Double.compare(MixedKsg.mi(xs, ys, k), KnnReference.mixedKsg(xs, ys, k)) == 0,
      s"MixedKSG k=$k n=$n")
  }

  for ((name, gen) <- shapes) {
    test(s"KSG and MixedKSG match the reference loops bit for bit: $name") {
      val rng = new Rng(name.hashCode)
      for (k <- 1 to 5; n <- Seq(k + 2, k + 3) ++ Seq.fill(6)(k + 2 + rng.nextInt(500 - k - 1))) {
        val (xs, ys) = gen(rng, n)
        assertMatches(xs, ys, k)
      }
      // Sizes of a sketch-join and of a small full join.
      for (k <- 1 to 5) {
        val (xs, ys) = gen(rng, 1000 + rng.nextInt(2001))
        assertMatches(xs, ys, k)
      }
    }
  }

  test("countCloser equals the scan at r = 0, r = +Inf and r equal to a gap; countEqual too") {
    def scan(v: Array[Double], i: Int, within: Double => Boolean): Int =
      v.indices.count(j => j != i && within(math.abs(v(j) - v(i))))
    val rng = new Rng(7)
    val v = Array.fill(300)(rng.nextInt(40) * 0.1) ++
      Seq(0.0, -0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, 1e308, -1e308)
    val m = new Knn.Marginal(v)
    val gaps = for (a <- v.distinct; b <- v.distinct if a != b) yield math.abs(a - b)
    for (i <- v.indices; r <- Seq(0.0, Double.PositiveInfinity) ++ Seq.fill(5)(gaps(rng.nextInt(gaps.length))))
      assert(m.countCloser(i, r) == scan(v, i, _ < r), s"v(i)=${v(i)} r=$r")
    for (i <- v.indices if java.lang.Double.isFinite(v(i)))
      assert(m.countEqual(i) == scan(v, i, _ == 0.0), s"v(i)=${v(i)}")
  }

  test("countWithin equals the scan at r = 0, r = +Inf and r equal to a gap") {
    val rng = new Rng(8)
    val v = Array.fill(300)(rng.nextInt(40) / 10.0) ++
      Seq(0.0, -0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, 1e308, -1e308)
    val m = new Knn.Marginal(v)
    val gaps = for (a <- v.distinct; b <- v.distinct if a != b) yield math.abs(a - b)
    for (i <- v.indices if java.lang.Double.isFinite(v(i));
         r <- Seq(0.0, Double.PositiveInfinity) ++ Seq.fill(5)(gaps(rng.nextInt(gaps.length)))) {
      val scan = v.indices.count(j => j != i && math.abs(v(j) - v(i)) <= r)
      assert(m.countWithin(i, r) == scan, s"v(i)=${v(i)} r=$r")
    }
  }
}
