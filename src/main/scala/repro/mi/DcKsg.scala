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
      // The class's positions in keptY, in the order of their values. The
      // terms are summed in this order, as `DcKsgReference` sums them.
      val pos   = Array.range(offset, offset + cSize).sortBy(keptY(_))
      // With y on both axes the max-norm distance is |y_j - y_i|.
      val cy    = new Knn.Marginal(pos.map(keptY(_)))
      val r     = Knn.kthDistances(cy, cy, ki)
      var p     = 0
      while (p < cSize) {
        val mi = marginal.countWithin(pos(p), r(p))
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
