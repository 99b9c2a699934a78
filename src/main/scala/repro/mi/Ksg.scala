package repro.mi

import repro.stats.SpecialFunctions.digamma

/** KSG estimator (Kraskov, Stögbauer, Grassberger 2004, algorithm 1) for
  * continuous-continuous pairs.
  *
  * I(X;Y) = psi(k) + psi(N) - < psi(n_x + 1) + psi(n_y + 1) >
  * where n_x(i) counts samples with |x_j - x_i| strictly smaller than the
  * i-th sample's k-NN distance in the joint (l-inf) space.
  */
object Ksg {

  def mi(xs: Array[Double], ys: Array[Double], k: Int = MI.DefaultK): Double = {
    val n = xs.length
    require(ys.length == n, "KSG: size mismatch")
    require(n > k + 1, s"KSG needs more than k+1=${k + 1} samples, got $n")
    val mx  = new Knn.Marginal(xs)
    val my  = new Knn.Marginal(ys)
    val eps = Knn.kthDistances(mx, my, k)
    var acc = 0.0
    var i   = 0
    while (i < n) {
      val nx = mx.countCloser(i, eps(i))
      val ny = my.countCloser(i, eps(i))
      acc += digamma(nx + 1.0) + digamma(ny + 1.0)
      i += 1
    }
    math.max(0.0, digamma(k.toDouble) + digamma(n.toDouble) - acc / n)
  }
}
