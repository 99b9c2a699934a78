package repro.mi

/** The one k-nearest-neighbour search of the k-NN estimators: max-norm
  * distances in a joint (x, y) space and counts on one marginal.
  * [[MixedKsg]] searches the (x, y) space; [[DcKsg]] searches each class's
  * values, with y on both axes, and counts its m_i on the y marginal.
  *
  * O(N log N) on the estimators' inputs: each column is sorted once, a
  * point's k-th distance comes from a window widened outward from it along
  * one sorted axis, and marginal counts are binary searches. The results are
  * those of the all-pairs scan, bit for bit: distances are always
  * `|v(j) - v(i)|`, so two equal infinities are NaN apart, never 0, and
  * neither the k-th smallest distance nor a count depends on the order in
  * which points are visited.
  */
private[mi] object Knn {

  /** One column of the sample and its values sorted once (`Arrays.sort`
    * order: -0.0 before 0.0, NaN last).
    */
  final class Marginal(val values: Array[Double]) {
    private val sorted = { val s = values.clone(); java.util.Arrays.sort(s); s }

    /** Number of distinct values in the column. */
    val distinct: Int = {
      var c = 0
      var t = 0
      while (t < sorted.length) {
        if (t == 0 || sorted(t) != sorted(t - 1)) c += 1
        t += 1
      }
      c
    }

    /** Number of sorted values below `v`, or at most `v` when `orEqual`. */
    private def countBelow(v: Double, orEqual: Boolean): Int = {
      var lo = 0
      var hi = sorted.length
      while (lo < hi) {
        val m = (lo + hi) >>> 1
        val s = sorted(m)
        if (s < v || orEqual && s == v) lo = m + 1 else hi = m
      }
      lo
    }

    /** Rank of point i's value: the number of values below it. */
    def rank(i: Int): Int = countBelow(values(i), orEqual = false)

    /** Number of points j != i with |v(j) - v(i)| < r. */
    def countCloser(i: Int, r: Double): Int = countNear(i, r, orEqual = false)

    /** Number of points j != i with |v(j) - v(i)| <= r, for a finite v(i). */
    def countWithin(i: Int, r: Double): Int = countNear(i, r, orEqual = true)

    private def countNear(i: Int, r: Double, orEqual: Boolean): Int = {
      val vi = values(i)
      def near(s: Double): Boolean = {
        val d = math.abs(s - vi)
        d < r || orEqual && d == r
      }
      // Nothing is closer than a radius <= 0 or within one < 0 or NaN, and
      // no distance from an infinite or NaN value is finite.
      if (!(r > 0 || orEqual && r == 0) || !java.lang.Double.isFinite(vi)) 0
      else {
        // Along the sorted values `near` is false, then true on a block that
        // holds vi itself, then false again: search both ends of the block
        // with that predicate (not with vi ± r, which rounds).
        var lo = 0
        var hi = sorted.length
        while (lo < hi) {
          val m = (lo + hi) >>> 1
          val s = sorted(m)
          if (s < vi && !near(s)) lo = m + 1 else hi = m
        }
        val start = lo
        hi = sorted.length
        while (lo < hi) {
          val m = (lo + hi) >>> 1
          val s = sorted(m)
          if (s <= vi || near(s)) lo = m + 1 else hi = m
        }
        lo - start - 1
      }
    }

    /** Number of points j != i with |v(j) - v(i)| == 0, for a finite v(i):
      * the values equal to it, -0.0 and 0.0 alike.
      */
    def countEqual(i: Int): Int =
      countBelow(values(i), orEqual = true) - countBelow(values(i), orEqual = false) - 1
  }

  /** For each point i, the max-norm distance to its k-th nearest other point. */
  def kthDistances(x: Marginal, y: Marginal, k: Int): Array[Double] = {
    val xs = x.values
    val ys = y.values
    // A point with a non-finite coordinate is +Inf or NaN away from every
    // other point, and neither is below the initial +Inf: such points keep
    // +Inf and stay out of every finite point's window.
    val out = Array.fill(xs.length)(Double.PositiveInfinity)

    // Walk the axis with more distinct values: its windows are narrowest.
    val axis = if (x.distinct >= y.distinct) x else y
    // The finite points in axis order, from sorted (rank << 32 | index) keys.
    val keys = Array.newBuilder[Long]
    var idx  = 0
    while (idx < xs.length) {
      if (java.lang.Double.isFinite(xs(idx)) && java.lang.Double.isFinite(ys(idx)))
        keys += (axis.rank(idx).toLong << 32) | idx
      idx += 1
    }
    val order = { val s = keys.result(); java.util.Arrays.sort(s); s.map(key => (key & 0xffffffffL).toInt) }
    val a     = order.map(axis.values(_))

    val knn = new Array[Double](k) // k smallest distances so far, ascending
    var t   = 0
    while (t < order.length) {
      java.util.Arrays.fill(knn, Double.PositiveInfinity)
      val i  = order(t)
      val xi = xs(i)
      val yi = ys(i)
      val ai = a(t)
      var lo = t - 1
      var hi = t + 1
      var widening = true
      while (widening) {
        // Gaps grow outward, and each bounds the distance of every point
        // beyond it: stop once neither side can hold a nearer point.
        val gapLo = if (lo >= 0) ai - a(lo) else Double.PositiveInfinity
        val gapHi = if (hi < a.length) a(hi) - ai else Double.PositiveInfinity
        val kth   = knn(k - 1)
        if (gapLo >= kth && gapHi >= kth) widening = false
        else {
          val j = if (gapLo <= gapHi) { lo -= 1; order(lo + 1) } else { hi += 1; order(hi - 1) }
          val d = math.max(math.abs(xs(j) - xi), math.abs(ys(j) - yi))
          if (d < kth) {
            var p = k - 1
            while (p > 0 && knn(p - 1) > d) { knn(p) = knn(p - 1); p -= 1 }
            knn(p) = d
          }
        }
      }
      out(i) = knn(k - 1)
      t += 1
    }
    out
  }
}
