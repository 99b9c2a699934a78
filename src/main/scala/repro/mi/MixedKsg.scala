package repro.mi

import repro.stats.SpecialFunctions.digamma

/** Mixed-KSG estimator (Gao, Kannan, Oh, Viswanath, NeurIPS 2017) for
  * variables that are mixtures of discrete and continuous distributions —
  * the case created by left joins on repeated keys (Section II / III).
  *
  * Follows the authors' reference implementation: for each sample i, let rho
  * be the k-NN distance in the joint l-inf space (self excluded).
  *   rho > 0:  k~ = k;             counts = #{ marginal distance < rho } + self
  *   rho == 0: k~ = #{ joint distance == 0 } + self;
  *             counts = #{ marginal distance == 0 } + self
  *   xi_i = psi(k~) + ln N - psi(n_x) - psi(n_y),   I = max(0, mean xi)
  * In the all-discrete case (rho == 0 everywhere) this recovers the plug-in
  * estimator; in the all-continuous case it reduces to KSG with ln N in place
  * of psi(N).
  */
object MixedKsg {

  def mi(xs: Array[Double], ys: Array[Double], k: Int = MI.DefaultK): Double = {
    val n = xs.length
    require(ys.length == n, "MixedKSG: size mismatch")
    require(n > k + 1, s"MixedKSG needs more than k+1=${k + 1} samples, got $n")
    val logN = math.log(n.toDouble)
    val mx   = new Knn.Marginal(xs)
    val my   = new Knn.Marginal(ys)
    val rho  = Knn.kthDistances(mx, my, k)
    // How many points with rho == 0 (all finite) share each (x, y) value,
    // self included. `+ 0.0` turns -0.0 into 0.0: their distance is 0 too.
    val tied = (0 until n).filter(rho(_) == 0.0)
      .groupMapReduce(i => (xs(i) + 0.0, ys(i) + 0.0))(_ => 1)(_ + _)
    var acc  = 0.0
    var i    = 0
    while (i < n) {
      // counts include the point itself, as in the reference impl
      var kTilde = k
      var nx     = 1
      var ny     = 1
      if (rho(i) == 0.0) {
        kTilde = tied((xs(i) + 0.0, ys(i) + 0.0))
        nx += mx.countEqual(i)
        ny += my.countEqual(i)
      } else {
        nx += mx.countCloser(i, rho(i))
        ny += my.countCloser(i, rho(i))
      }
      acc += digamma(kTilde.toDouble) + logN - digamma(nx.toDouble) - digamma(ny.toDouble)
      i += 1
    }
    math.max(0.0, acc / n)
  }
}
