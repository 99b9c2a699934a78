package repro.bench

import repro.SparkSpec
import repro.exp.TableIIExp

/** Reproduces Table II on the synthetic open-data substitute collections:
  * per sketching scheme, average sketch-join size, Spearman's R between the
  * sketch estimate and the full-join estimate, and MSE (sketch joins > 100
  * rows only), at `TableIIExp.run`'s defaults. Paper values for reference:
  *   NYC LV2SK 230.9/0.81/1.41, PRISK 231.1/0.79/1.36, TUPSK 185.3/0.86/0.93
  *   WBF LV2SK 231.2/0.40/1.75, PRISK 226.6/0.40/1.76, TUPSK 194.9/0.45/1.46
  * (Paper sketch size n=1024 with joins filtered at >100; join sizes are not
  * comparable in absolute terms since our collections are synthetic.)
  */
class TableIIBench extends SparkSpec {

  private lazy val rows = {
    val summary = TableIIExp.summarize(Seq("NYC", "WBF").flatMap(TableIIExp.run(spark, _)))
    val text    = TableIIExp.format(summary)
    println("\n===== TABLE II (reproduced, synthetic open-data substitute) =====")
    println(text)
    println("=================================================================\n")
    Results.write("table2.txt", text)
    summary
  }

  private def row(coll: String, sk: String) =
    rows.find(r => r.collection == coll && r.sketch == sk).get

  test("Table II runs for both collections and all three sketches") {
    assert(rows.map(_.collection).distinct.sorted == Seq("NYC", "WBF"))
    assert(rows.map(_.sketch).distinct.sorted == Seq("LV2SK", "PRISK", "TUPSK"))
    rows.foreach(r => assert(r.nPairs > 5, s"too few retained pairs: $r"))
  }

  test("shape: average retained sketch-join sizes exceed the >100 filter") {
    rows.foreach(r => assert(r.avgJoinSize > 100, s"$r"))
  }

  test("shape: sketch estimates rank pairs like the full join (positive Spearman)") {
    rows.foreach(r => assert(r.spearman > 0.2, s"$r"))
  }

  test("shape: TUPSK attains the strongest Spearman correlation per collection") {
    for (coll <- Seq("NYC", "WBF")) {
      val t = row(coll, "TUPSK").spearman
      assert(t >= row(coll, "LV2SK").spearman - 0.03, coll)
      assert(t >= row(coll, "PRISK").spearman - 0.03, coll)
    }
  }

  test("shape: TUPSK attains the lowest (or tied) MSE per collection") {
    for (coll <- Seq("NYC", "WBF")) {
      val t = row(coll, "TUPSK").mse
      assert(t <= row(coll, "LV2SK").mse * 1.1, coll)
      assert(t <= row(coll, "PRISK").mse * 1.1, coll)
    }
  }

  test("shape: LV2SK and PRISK track each other") {
    for (coll <- Seq("NYC", "WBF")) {
      val a = row(coll, "LV2SK"); val b = row(coll, "PRISK")
      assert(math.abs(a.spearman - b.spearman) < 0.2, coll)
    }
  }
}
