package repro.bench

import repro.SparkSpec
import repro.exp.PerfExp

/** Section V-D performance exemplars: full-join and full-data MI estimation
  * cost grows with N while the sketch join and sketch-sample estimation stay
  * approximately constant. The paper reports (N=5k -> 20k): full join
  * 0.35ms -> 2.1ms, sketch join 0.03ms -> 0.18ms, MI estimation 2.2ms ->
  * 10.7ms, sketch estimation ~0.1ms. Our absolute numbers include Spark job
  * scheduling overhead; the asserted claim is the growth shape.
  */
class PerfBench extends SparkSpec {

  private lazy val rows = {
    val r    = PerfExp.run(spark)
    val text = PerfExp.format(r)
    println("\n===== Section V-D performance exemplars (reproduced) =====")
    println(text)
    println("===========================================================\n")
    Results.write("perf.txt", text)
    r
  }

  test("perf sweep covers the paper's table sizes") {
    assert(rows.map(_.nRows) == Seq(5000, 10000, 20000))
  }

  test("shape: full-data MI estimation cost grows superlinearly with N") {
    val first = rows.head.fullMiMs
    val last  = rows.last.fullMiMs
    assert(last > 3.0 * first, s"5k=${first}ms 20k=${last}ms")
  }

  test("shape: sketch MI estimation cost is approximately constant in N") {
    val times = rows.map(_.sketchMiMs)
    assert(times.max < math.max(4.0 * times.min, times.min + 5.0), times.toString)
  }

  test("shape: sketch estimation is far cheaper than full estimation at N=20k") {
    assert(rows.last.sketchMiMs * 5 < rows.last.fullMiMs,
      s"sketch=${rows.last.sketchMiMs}ms full=${rows.last.fullMiMs}ms")
  }

  test("shape: sketch join does not inflate with N the way the full join does") {
    val growthFull   = rows.last.fullJoinMs / rows.head.fullJoinMs
    val growthSketch = rows.last.sketchJoinMs / rows.head.sketchJoinMs
    assert(growthSketch < math.max(2.0, growthFull),
      s"sketch growth $growthSketch vs full growth $growthFull")
  }
}
