package repro.mi

/** The k-nearest-neighbour scan shared by [[Ksg]] and [[MixedKsg]]:
  * max-norm distances in the joint (x, y) space and strict-radius counts on
  * one marginal.
  *
  * O(N^2): the sketch samples this runs on are at most a few thousand points,
  * and Table II's full joins at most about 6k. Distances are always
  * `|v(j) - v(i)|`, so two equal infinities are NaN apart, never 0.
  */
private[mi] object Knn {

  /** For each point i, the max-norm distance to its k-th nearest other point. */
  def kthDistances(xs: Array[Double], ys: Array[Double], k: Int): Array[Double] = {
    val n   = xs.length
    val out = new Array[Double](n)
    val knn = new Array[Double](k) // k smallest distances so far, ascending
    var i   = 0
    while (i < n) {
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      val xi = xs(i)
      val yi = ys(i)
      var j  = 0
      while (j < n) {
        if (j != i) {
          val d = math.max(math.abs(xs(j) - xi), math.abs(ys(j) - yi))
          if (d < knn(k - 1)) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
        j += 1
      }
      out(i) = knn(k - 1)
      i += 1
    }
    out
  }

  /** Number of points j != i with |v(j) - v(i)| < r. */
  def countCloser(v: Array[Double], i: Int, r: Double): Int = {
    val vi = v(i)
    var c  = 0
    var j  = 0
    while (j < v.length) {
      if (j != i && math.abs(v(j) - vi) < r) c += 1
      j += 1
    }
    c
  }
}
