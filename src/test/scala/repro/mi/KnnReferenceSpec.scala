package repro.mi

import org.scalatest.funsuite.AnyFunSuite
import repro.stats.Rng
import repro.stats.SpecialFunctions.digamma

/** `Ksg` and `MixedKsg` run on the shared `Knn` kernel. These are the
  * self-contained per-estimator loops they replaced, kept as oracles: the
  * estimates must agree bit for bit, ties and infinities included.
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
  )

  for ((name, gen) <- shapes) {
    test(s"KSG and MixedKSG match the reference loops bit for bit: $name") {
      val rng = new Rng(name.hashCode)
      for (k <- 1 to 5; n <- Seq(k + 2, k + 3) ++ Seq.fill(6)(k + 2 + rng.nextInt(500 - k - 1))) {
        val (xs, ys) = gen(rng, n)
        val ksg      = Ksg.mi(xs, ys, k)
        val mixed    = MixedKsg.mi(xs, ys, k)
        assert(java.lang.Double.compare(ksg, KnnReference.ksg(xs, ys, k)) == 0, s"KSG k=$k n=$n")
        assert(java.lang.Double.compare(mixed, KnnReference.mixedKsg(xs, ys, k)) == 0,
          s"MixedKSG k=$k n=$n")
      }
    }
  }
}
