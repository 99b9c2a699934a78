package repro.stats

/** Small driver-side statistics helpers used by experiments and tests. */
object Stats {

  /** Mean of a sequence; NaN on empty input. */
  def mean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** Mean squared error between paired estimates and references. */
  def mse(est: Seq[Double], ref: Seq[Double]): Double = {
    require(est.size == ref.size, s"mse: size mismatch ${est.size} vs ${ref.size}")
    mean(est.zip(ref).map { case (a, b) => val d = a - b; d * d })
  }

  /** Pearson's correlation coefficient; NaN if either side is constant. */
  def pearson(xs: Seq[Double], ys: Seq[Double]): Double = {
    require(xs.size == ys.size, "pearson: size mismatch")
    val n  = xs.size
    if (n < 2) return Double.NaN
    val mx = mean(xs); val my = mean(ys)
    var sxy = 0.0; var sxx = 0.0; var syy = 0.0
    var i   = 0
    while (i < n) {
      val dx = xs(i) - mx; val dy = ys(i) - my
      sxy += dx * dy; sxx += dx * dx; syy += dy * dy
      i += 1
    }
    if (sxx == 0.0 || syy == 0.0) Double.NaN else sxy / math.sqrt(sxx * syy)
  }

  /** Fractional ranks (1-based) with ties assigned their average rank. */
  def ranks(xs: Seq[Double]): Array[Double] = {
    val n      = xs.size
    val idx    = xs.zipWithIndex.sortBy(_._1).map(_._2).toArray
    val out    = new Array[Double](n)
    var i      = 0
    while (i < n) {
      var j = i
      while (j + 1 < n && xs(idx(j + 1)) == xs(idx(i))) j += 1
      val avg = (i + j + 2) / 2.0 // average of 1-based ranks i+1..j+1
      var k   = i
      while (k <= j) { out(idx(k)) = avg; k += 1 }
      i = j + 1
    }
    out
  }

  /** Spearman's rank correlation (ties get average ranks). */
  def spearman(xs: Seq[Double], ys: Seq[Double]): Double =
    pearson(ranks(xs).toSeq, ranks(ys).toSeq)
}
