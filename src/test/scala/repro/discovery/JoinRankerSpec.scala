package repro.discovery

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.discovery.JoinRanker.Candidate
import repro.sketch.{AggFn, Sketch}
import repro.stats.Rng

class JoinRankerSpec extends SparkSpec {
  import spark.implicits._

  /** Train table keyed by id with a numeric target driven by a latent score. */
  private def fixtures(seed: Long) = {
    val rng   = new Rng(seed)
    val n     = 3000
    val score = Array.fill(n)(rng.nextDouble())
    val train = (0 until n).map(i => (i.toLong, 10 * score(i) + 0.1 * rng.nextGaussian()))
      .toDF("k", "y")
    def cand(dep: Double, seed2: Long) = {
      val r2 = new Rng(seed2)
      (0 until n).map { i =>
        val v = dep * score(i) + (1 - dep) * r2.nextDouble()
        (i.toLong, v)
      }.toDF("k", "x")
    }
    (train, cand _)
  }

  test("a strongly related candidate ranks above an unrelated one") {
    val (train, cand) = fixtures(1)
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("strong", cand(0.95, 11), "k", "x", AggFn.Avg),
        Candidate("medium", cand(0.5, 12), "k", "x", AggFn.Avg),
        Candidate("noise", cand(0.0, 13), "k", "x", AggFn.Avg),
      ),
      Sketch.SketchConf(512))
    assert(ranked.map(_.name) == Seq("strong", "medium", "noise"),
      ranked.map(r => s"${r.name}=${r.estimatedMI}").mkString(", "))
  }

  test("non-joinable candidates fall to the bottom with NaN estimates") {
    val (train, cand) = fixtures(2)
    val disjoint = (100000 until 101000).map(i => (i.toLong, 1.0)).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("joinable", cand(0.9, 21), "k", "x", AggFn.Avg),
        Candidate("disjoint", disjoint, "k", "x", AggFn.Avg),
      ),
      Sketch.SketchConf(256))
    assert(ranked.head.name == "joinable")
    assert(ranked.last.name == "disjoint" && ranked.last.estimatedMI.isNaN)
    assert(ranked.last.sketchJoinSize == 0)
  }

  test("ranking reports the estimator chosen per candidate's types") {
    val (train, cand) = fixtures(3)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 7}")).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("numeric", cand(0.5, 31), "k", "x", AggFn.Avg),
        Candidate("string", strCand, "k", "x", AggFn.Mode),
      ),
      Sketch.SketchConf(256))
    assert(ranked.find(_.name == "numeric").get.estimator == "MixedKSG")
    assert(ranked.find(_.name == "string").get.estimator == "DC-KSG")
  }

  test("an empty sketch-join reports the estimator of the input types") {
    val (train, cand) = fixtures(5)
    val disjoint = (100000 until 101000).map(i => (i.toLong, s"c${i % 7}")).toDF("k", "x")
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("joinable", cand(0.9, 51), "k", "x", AggFn.Avg),
        Candidate("disjoint", disjoint, "k", "x", AggFn.Mode),
      ),
      Sketch.SketchConf(256))
    val r = ranked.find(_.name == "disjoint").get
    assert(r.sketchJoinSize == 0 && r.estimatedMI.isNaN)
    assert(r.estimator == "DC-KSG")
  }

  test("sketch-based ranking agrees with full-join MI ranking") {
    val (train, cand) = fixtures(4)
    val deps = Seq(0.1, 0.5, 0.9)
    val cands = deps.zipWithIndex.map { case (d, i) =>
      Candidate(s"c$d", cand(d, 40 + i), "k", "x", AggFn.Avg)
    }
    val ranked = JoinRanker.rank(train, "k", "y", cands, Sketch.SketchConf(1024))
    // Full-join reference ordering.
    val fullOrder = cands.map { c =>
      val joined = train.join(c.df.groupBy("k").agg(avg("x") as "x"), "k")
        .select("x", "y").collect()
      val mi = repro.mi.MixedKsg.mi(joined.map(_.getDouble(0)).take(3000),
                                    joined.map(_.getDouble(1)).take(3000))
      c.name -> mi
    }.sortBy(-_._2).map(_._1)
    assert(ranked.map(_.name) == fullOrder)
  }
}
