package repro.discovery

import java.lang.ref.WeakReference
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.NumericType
import repro.mi.MI
import repro.sketch.{AggFn, Featurize, Sketch, TupSk}

/** The end-to-end discovery query the sketches exist to serve (Section I):
  * given a base table with a target column, rank candidate joinable tables by
  * the estimated MI between their feature column and the target — without
  * materializing any join. The base table is sketched on every call, one
  * collect brings it back with an index of the candidates' sketches that are
  * not held from an earlier call, and the driver joins them.
  */
object JoinRanker {

  final case class Candidate(name: String, df: DataFrame, key: String, value: String,
                             agg: AggFn = AggFn.First)

  /** A candidate's estimate, with the sizes of the train sketch, of the
    * candidate's sketch and of their join (join / n is the coordination);
    * whether the candidate's sketch was [[Built]] by this call or [[Held]]
    * from an earlier one; and, when the estimate is NaN, why
    * ([[NoOverlap]] or [[BelowMinJoin]]).
    */
  final case class Ranked(name: String, estimatedMI: Double, sketchJoinSize: Int,
                          estimator: String, leftSketchSize: Int, rightSketchSize: Int,
                          rightSketch: String, nanReason: Option[String])

  /** [[Ranked.rightSketch]]: built and collected by this call, or held from an earlier one. */
  val Built = "built"
  val Held  = "held"
  /** [[Ranked.nanReason]]: an empty sketch-join, or one of 1 to [[MinJoin]] − 1 rows. */
  val NoOverlap    = "NO_OVERLAP"
  val BelowMinJoin = "BELOW_MIN_JOIN"

  /** Sketch-joins smaller than this are not estimated: too few rows to rank
    * a candidate by (a ranking policy, stricter than the estimators' own
    * size rule).
    */
  val MinJoin = 10

  /** Rank candidates by TUPSK-estimated MI (descending). Candidates whose
    * sketch-join has fewer than [[MinJoin]] rows rank last with NaN
    * estimates, mirroring the paper's "discard meaningless estimates". The
    * estimator follows the input columns' types, so it is reported even when
    * the sketch-join is empty.
    */
  def rank(train: DataFrame, trainKey: String, target: String,
           candidates: Seq[Candidate], conf: Sketch.SketchConf): Seq[Ranked] = {
    val yNumeric = train.schema(target).dataType.isInstanceOf[NumericType]
    val ranked = candidates.zip(samples(train, trainKey, target, candidates, conf)).map {
      case (c, (sample, leftSize, rightSize, held)) =>
        val kind   = MI.auto(Featurize.numericFeature(c.df, c.value, c.agg), yNumeric)
        val reason =
          if (sample.size == 0) Some(NoOverlap)
          else if (sample.size < MinJoin) Some(BelowMinJoin)
          else None
        val est = if (reason.isDefined) Double.NaN else MI.estimate(kind, sample.x, sample.y)
        Ranked(c.name, est, sample.size, kind.name, leftSize, rightSize, if (held) Held else Built, reason)
    }
    ranked.sortBy(r => if (r.estimatedMI.isNaN) Double.NegativeInfinity else r.estimatedMI)(
      Ordering[Double].reverse)
  }

  /** Each candidate's TUPSK sketch-join sample, with the sizes of the train
    * sketch and of the candidate's sketch, and whether that sketch was held.
    * One Spark job collects the train sketch and [[TupSk.index]] of the
    * candidates whose sketch is not held, at most (C + 1)·n rows for C
    * candidates, and the driver joins each candidate's rows with the train
    * sketch's ([[Sketch.joinSample]]); no Spark job runs when there is no
    * candidate. A cached candidate's collected sketch is held while Spark's
    * cache holds its rows ([[HeldSketches]]). [[Sketch.toSample]] puts each
    * sample's rows in one order, so the same inputs give the same estimates.
    */
  private[discovery] def samples(train: DataFrame, trainKey: String, target: String,
                                 candidates: Seq[Candidate],
                                 conf: Sketch.SketchConf): Seq[(Sketch.Sample, Int, Int, Boolean)] =
    if (candidates.isEmpty) Nil
    else {
      val keys    = candidates.map(c => HeldSketches.cacheOf(c.df).map(_ -> (c.key, c.value, c.agg, conf.n)))
      val held    = keys.map(_.flatMap { case (cache, spec) => HeldSketches.get(cache, spec) })
      val missing = candidates.indices.filter(held(_).isEmpty)
      val index   = Option.when(missing.nonEmpty)(TupSk.index(
        missing.map(candidates).map(c => Featurize.Feature(c.df, c.key, c.value, c.agg)), conf))
      val (left, rights) = Sketch.collectSketches(TupSk.sketchLeft(train, trainKey, target, conf), index)
      val built = missing.zipWithIndex.map { case (i, j) => i -> rights.getOrElse(j, Array.empty[Row]) }.toMap
      HeldSketches.put(for ((i, rows) <- built.toSeq; (cache, spec) <- keys(i)) yield (cache, spec, rows))
      candidates.indices.map { i =>
        val right = held(i).getOrElse(built(i))
        (Sketch.joinSample(left, right), left.length, right.length, held(i).isDefined)
      }
    }

  /** Collected right sketches of cached candidates, at most n rows each,
    * keyed by the Spark cache entry that holds the candidate's rows (the
    * `CachedRDDBuilder` the cache manager resolves the candidate to,
    * compared by identity and referenced weakly) and by what the sketch
    * reads of them. A lookup goes through the cache entry the candidate
    * resolves to now: an unpersist removes it, and a re-cache makes a new
    * one, so the next call builds the sketch again. An entry is dropped once
    * its cache entry is collected. The train table is the query, so it is
    * sketched on every call and never held.
    */
  private object HeldSketches {
    /** What a sketch reads of a cached table: key, value, AGG and n. */
    type Spec = (String, String, AggFn, Int)

    private final class Entry(cache: AnyRef, val rows: Array[Row]) extends WeakReference[AnyRef](cache)

    // By the cache entry's identity hash, and checked against the entry
    // itself: a re-cache's new entry can equal the old one as a case class.
    private val entries = mutable.HashMap.empty[(Int, Spec), Entry]

    /** The Spark cache entry that holds `df`'s rows, if `df` is cached; an
      * `AnyRef`, as its class is private to Spark.
      */
    def cacheOf(df: DataFrame): Option[AnyRef] = {
      import org.apache.spark.sql.classic.ClassicConversions._
      df.sparkSession.sharedState.cacheManager.lookupCachedData(df).map(_.cachedRepresentation.cacheBuilder)
    }

    def get(cache: AnyRef, spec: Spec): Option[Array[Row]] = entries.synchronized {
      entries.get((System.identityHashCode(cache), spec)).filter(_.get eq cache).map(_.rows)
    }

    /** Hold `sketches`, and drop every entry whose cache entry was collected. */
    def put(sketches: Seq[(AnyRef, Spec, Array[Row])]): Unit = entries.synchronized {
      entries.filterInPlace((_, e) => e.get != null)
      for ((cache, spec, rows) <- sketches) entries((System.identityHashCode(cache), spec)) = new Entry(cache, rows)
    }
  }
}
