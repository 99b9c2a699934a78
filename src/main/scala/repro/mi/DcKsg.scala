package repro.mi

import repro.stats.SpecialFunctions.digamma
import scala.collection.mutable

/** Discrete-continuous MI estimator (Ross, PLoS ONE 2014), "DC-KSG" in the
  * paper: X provides discrete classes, Y is continuous.
  *
  * For each point i with class c_i of size N_c > 1:
  *   k_i = min(k, N_c - 1);
  *   r_i = distance to the k_i-th nearest neighbor of y_i within class c_i;
  *   m_i = number of points (any class, excluding i) with |y_j - y_i| <= r_i.
  * I = psi(N) + <psi(k_i)> - <psi(N_c)> - <psi(m_i)>, averaged over points in
  * classes of size > 1 (singleton classes are dropped, as in the reference
  * scikit-learn implementation the paper's experiments rely on).
  */
object DcKsg {

  def mi(classes: IndexedSeq[AnyRef], cont: Array[Double], k: Int = MI.DefaultK): Double = {
    val n0 = cont.length
    require(classes.size == n0, "DC-KSG: size mismatch")
    require(n0 > k + 1, s"DC-KSG needs more than k+1=${k + 1} samples, got $n0")

    // Group point indices by class.
    val groups = mutable.LinkedHashMap.empty[AnyRef, mutable.ArrayBuffer[Int]]
    var i = 0
    while (i < n0) {
      groups.getOrElseUpdate(classes(i), mutable.ArrayBuffer.empty[Int]) += i
      i += 1
    }

    // Keep only classes with more than one member. Their values, class by
    // class, form the marginal that m_i is counted on.
    val kept     = groups.valuesIterator.filter(_.size > 1).toArray
    val keptY    = kept.flatMap(_.map(cont(_)))
    val n        = keptY.length
    if (n <= k) return 0.0
    val marginal = new Knn.Marginal(keptY)

    var sumPsiK = 0.0
    var sumPsiC = 0.0
    var sumPsiM = 0.0
    var offset  = 0 // the class's first position in keptY
    for (g <- kept) {
      val cSize = g.size
      val ki    = math.min(k, cSize - 1)
      // The class's positions in keptY, in the order of their values.
      val pos   = Array.range(offset, offset + cSize).sortBy(keptY(_))
      val gy    = pos.map(keptY(_))
      var p     = 0
      while (p < cSize) {
        val yi = gy(p)
        // k_i-th NN distance within the class via two-pointer window growth
        // on the sorted class values (self excluded).
        var lo = p; var hi = p; var found = 0; var r = 0.0
        while (found < ki) {
          val dLo = if (lo > 0) yi - gy(lo - 1) else Double.PositiveInfinity
          val dHi = if (hi < cSize - 1) gy(hi + 1) - yi else Double.PositiveInfinity
          if (dLo <= dHi) { lo -= 1; r = dLo } else { hi += 1; r = dHi }
          found += 1
        }
        val mi = marginal.countWithin(pos(p), r)
        sumPsiK += digamma(ki.toDouble)
        sumPsiC += digamma(cSize.toDouble)
        sumPsiM += digamma(math.max(1, mi).toDouble)
        p += 1
      }
      offset += cSize
    }
    val est = digamma(n.toDouble) + (sumPsiK - sumPsiC - sumPsiM) / n
    math.max(0.0, est)
  }
}
