package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.Hashing
import repro.mi.{ColData, MI}
import repro.sketch.{AggFn, Featurize, Sketch}

/** What one operation measured. `primaryMs / items` is the workload's
  * `ms_per_item`; `sketchRows` input rows went through sketching in
  * `sketchMs`. `failures` lists the output checks that did not hold;
  * `extras` are per-layer figures the workload reads off the program's output.
  */
final case class OpResult(primaryMs: Double, items: Int, sketchRows: Long, sketchMs: Double,
                          failures: Seq[String], extras: Map[String, Double] = Map.empty,
                          stagedMismatches: Int = 0)

/** A benchmark workload: inputs made from a seed, a closed loop of
  * operations, and checks on every operation's output.
  */
trait Workload {
  def name: String
  /** Parameters recorded with every result. */
  def params: Seq[(String, Any)]
  /** Generate the inputs, cache them and count them. Repeatable after `release`. */
  def prepare(): Unit
  def release(): Unit
  /** One operation. With tracing on it runs the staged form whose spans give
    * the per-layer figures; its outputs are checked either way.
    */
  def run(opIndex: Int, t: Tracer): OpResult
}

object Workload {
  def apply(name: String, spark: org.apache.spark.sql.SparkSession, seed: Long): Workload =
    name match {
      case "discover" => new Discover(spark, seed)
      case "fulljoin" => new FullJoin(spark, seed)
      case other      => throw new IllegalArgumentException(s"unknown workload $other")
    }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** `MI.auto` + `MI.estimate`, traced as `mi.<estimator>` with its point count. */
  def estimate(t: Tracer, x: ColData, y: ColData): Double = {
    val kind = MI.auto(x, y)
    t.span("mi." + kind.name.toLowerCase.replace("-", "")) {
      t.note("points", x.size.toDouble)
      MI.estimate(kind, x, y)
    }
  }

  /** Equal estimates. Collected samples may arrive in another order, which
    * changes the estimator's summation order, so equal means 1e-9 relative.
    */
  def sameEstimate(a: Double, b: Double): Boolean =
    (a.isNaN && b.isNaN) || math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(a))
}

/** TUPSK built stage by stage through the `sketch` and `core` public
  * functions, each stage forced and cached so its span holds its own work.
  * It must give what `TupSk.sketchLeft`/`sketchRight` give: `discover`
  * counts each candidate whose staged join size or estimate differs from the
  * program's ranking as a staged mismatch.
  */
object StagedTupSk {
  import Tracer.force

  private def hashed(df: DataFrame, j: org.apache.spark.sql.Column): DataFrame =
    df.select(
      Hashing.hkey(col("k")) as "hkey",
      Hashing.huTuple(Hashing.SaltTuple, col("k"), j) as "hu",
      col("vNum"),
      col("vStr"),
    )

  def left(t: Tracer, df: DataFrame, key: String, value: String, n: Int): DataFrame = {
    val norm = t.span("sketch.normalize")(force(Sketch.normalize(df, key, value)))
    val withJ = t.span("sketch.occurrence")(force(Sketch.withOccurrence(norm)))
    val pre  = t.span("core.hash")(force(hashed(withJ, col("j"))))
    val top  = t.span("sketch.topn")(force(Sketch.topN(pre, n, Sketch.TopNImpl.Udaf)))
    Seq(norm, withJ, pre).foreach(_.unpersist())
    top
  }

  def right(t: Tracer, df: DataFrame, key: String, value: String, agg: AggFn,
            n: Int): DataFrame = {
    val norm = t.span("sketch.normalize")(force(Sketch.normalize(df, key, value)))
    val aggd = t.span("sketch.aggregate")(force(Featurize.aggregateNorm(norm, agg)))
    val pre  = t.span("core.hash")(force(hashed(aggd, lit(1))))
    val top  = t.span("sketch.topn")(force(Sketch.topN(pre, n, Sketch.TopNImpl.Udaf)))
    Seq(norm, aggd, pre).foreach(_.unpersist())
    top
  }
}
