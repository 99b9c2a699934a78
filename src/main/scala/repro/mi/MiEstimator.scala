package repro.mi

/** Column sample types and estimator dispatch (Section II / Section V).
  *
  * A collected sample column is either numeric ([[NumCol]]) or string
  * ([[StrCol]]). Estimator selection follows the paper's rules for real data:
  * string-string -> MLE, numeric-numeric -> MixedKSG, mixed -> DC-KSG.
  * Experiments may also force a specific estimator (e.g. MLE over the ordered
  * integer values of the Trinomial distribution).
  */
sealed trait ColData {
  def size: Int
  /** Values as reference objects, for equality-based (discrete) estimators. */
  def anyValues: IndexedSeq[AnyRef]
  def isNumeric: Boolean
}

final case class NumCol(values: Array[Double]) extends ColData {
  def size: Int                     = values.length
  def anyValues: IndexedSeq[AnyRef] = values.map(v => java.lang.Double.valueOf(v)).toIndexedSeq
  def isNumeric: Boolean            = true
}

final case class StrCol(values: Array[String]) extends ColData {
  def size: Int                     = values.length
  def anyValues: IndexedSeq[AnyRef] = values.toIndexedSeq
  def isNumeric: Boolean            = false
}

/** Which MI estimator to apply to a sample of (x, y) pairs. */
sealed trait EstimatorKind { def name: String }
object EstimatorKind {
  case object MLE      extends EstimatorKind { val name = "MLE"      }
  case object MixedKSG extends EstimatorKind { val name = "MixedKSG" }
  case object DCKSG    extends EstimatorKind { val name = "DC-KSG"   }
}

object MI {
  /** Default number of neighbors for the KSG-family estimators. */
  val DefaultK = 3

  /** The paper's data-type dispatch rule (Section V, "MI Estimators"). */
  def auto(xNumeric: Boolean, yNumeric: Boolean): EstimatorKind = (xNumeric, yNumeric) match {
    case (false, false) => EstimatorKind.MLE
    case (true, true)   => EstimatorKind.MixedKSG
    case _              => EstimatorKind.DCKSG
  }

  def auto(x: ColData, y: ColData): EstimatorKind = auto(x.isNumeric, y.isNumeric)

  /** The one "too small to estimate" rule: the k-NN estimators need more
    * than k+1 points, MLE at least one.
    */
  private def minSize(kind: EstimatorKind, k: Int): Int =
    if (kind == EstimatorKind.MLE) 1 else k + 2

  /** Estimate I(X;Y) in nats from a paired sample with the given estimator.
    * Returns NaN on samples below `minSize`. A column the estimator cannot
    * use (MixedKSG given a string column, DC-KSG given two) is rejected with
    * an `IllegalArgumentException`.
    */
  def estimate(kind: EstimatorKind, x: ColData, y: ColData, k: Int = DefaultK): Double = {
    require(x.size == y.size, s"paired sample size mismatch: ${x.size} vs ${y.size}")
    if (x.size < minSize(kind, k)) Double.NaN
    else (kind, x, y) match {
      case (EstimatorKind.MLE, _, _)                      => Mle.mi(x.anyValues, y.anyValues)
      case (EstimatorKind.MixedKSG, a: NumCol, b: NumCol) => MixedKsg.mi(a.values, b.values, k)
      // The discrete side provides classes; MI is symmetric, so orient the
      // pair such that the continuous side is numeric. Numeric-numeric
      // treats x as discrete by equality.
      case (EstimatorKind.DCKSG, s: StrCol, c: NumCol)    => DcKsg.mi(s.anyValues, c.values, k)
      case (EstimatorKind.DCKSG, c: NumCol, s: StrCol)    => DcKsg.mi(s.anyValues, c.values, k)
      case (EstimatorKind.DCKSG, a: NumCol, b: NumCol)    => DcKsg.mi(a.anyValues, b.values, k)
      case _ => throw new IllegalArgumentException(
        s"${kind.name} cannot estimate MI of a ${x.getClass.getSimpleName} and a ${y.getClass.getSimpleName}")
    }
  }
}
