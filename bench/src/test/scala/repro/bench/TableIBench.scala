package repro.bench

import repro.SparkSpec
import repro.exp.TableIExp

/** Reproduces Table I: avg sketch-join size (and % of n) plus MSE vs the
  * analytically known true MI, per sketching scheme on CDUnif and Trinomial,
  * at `TableIExp.run`'s defaults. Paper values for reference:
  *   CDUnif    CSK 194.2/75.87%/4.56, INDSK 107.9/42.16%/9.57,
  *             LV2SK 232.9/90.99%/2.94, PRISK 232.9/90.99%/2.94,
  *             TUPSK 256.0/100%/0.77
  *   Trinomial CSK 155.2/60.62%/1.37, INDSK 133.7/52.22%/1.19,
  *             LV2SK 255.9/99.94%/0.32, PRISK 255.9/99.94%/0.32,
  *             TUPSK 256.0/100%/0.22
  */
class TableIBench extends SparkSpec {

  private lazy val rows = {
    val summary = TableIExp.summarize(TableIExp.run(spark))
    val text    = TableIExp.format(summary)
    println("\n===== TABLE I (reproduced) =====")
    println(text)
    println("================================\n")
    Results.write("table1.txt", text)
    summary
  }

  private def row(ds: String, sk: String) =
    rows.find(r => r.dataset == ds && r.sketch == sk).get

  test("Table I runs for both datasets and all five sketches") {
    assert(rows.map(_.dataset).distinct.sorted == Seq("CDUnif", "Trinomial"))
    assert(rows.map(_.sketch).distinct.sorted ==
      Seq("CSK", "INDSK", "LV2SK", "PRISK", "TUPSK"))
    rows.foreach(r => assert(r.nEstimates > 0, s"$r"))
  }

  test("shape: coordinated sketches recover far larger joins than INDSK") {
    for (ds <- Seq("CDUnif", "Trinomial")) {
      assert(row(ds, "INDSK").avgJoinSize < 0.75 * row(ds, "LV2SK").avgJoinSize, ds)
      assert(row(ds, "INDSK").avgJoinSize < 0.75 * row(ds, "TUPSK").avgJoinSize, ds)
    }
  }

  test("shape: TUPSK achieves the best MSE on both datasets") {
    for (ds <- Seq("CDUnif", "Trinomial"); sk <- Seq("CSK", "INDSK", "LV2SK", "PRISK")) {
      assert(row(ds, "TUPSK").mse <= row(ds, sk).mse * 1.05, s"$ds TUPSK vs $sk")
    }
  }

  test("shape: LV2SK and PRISK behave alike (paper reports identical rows)") {
    for (ds <- Seq("CDUnif", "Trinomial")) {
      val a = row(ds, "LV2SK"); val b = row(ds, "PRISK")
      assert(math.abs(a.avgJoinSize - b.avgJoinSize) < 0.25 * a.avgJoinSize, ds)
      assert(b.mse < 2.0 * a.mse + 0.1 && a.mse < 2.0 * b.mse + 0.1, ds)
    }
  }

  test("shape: two-level and tuple sketches keep join sizes near n") {
    for (ds <- Seq("CDUnif", "Trinomial"); sk <- Seq("LV2SK", "PRISK", "TUPSK")) {
      assert(row(ds, sk).pct > 70.0, s"$ds $sk pct=${row(ds, sk).pct}")
    }
  }

  test("shape: INDSK has the worst MSE on CDUnif (tiny joins score zero)") {
    val ind = row("CDUnif", "INDSK").mse
    for (sk <- Seq("CSK", "LV2SK", "PRISK", "TUPSK"))
      assert(ind > row("CDUnif", sk).mse * 0.9, s"INDSK=$ind vs $sk=${row("CDUnif", sk).mse}")
  }

  test("shape: INDSK recovers the smallest joins on both datasets") {
    for (ds <- Seq("CDUnif", "Trinomial")) {
      val ind = row(ds, "INDSK").avgJoinSize
      for (sk <- Seq("CSK", "LV2SK", "PRISK", "TUPSK"))
        assert(ind < row(ds, sk).avgJoinSize, s"$ds INDSK vs $sk")
    }
  }
}
