package repro.discovery

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.discovery.JoinRanker.Candidate
import repro.sketch.{AggFn, Featurize, Sketch, TupSk}
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

  test("ranking no candidate returns Nil and runs no Spark job") {
    val (train, _) = fixtures(6)
    var ranked: Seq[JoinRanker.Ranked] = null
    val jobs = jobsOf("rank-nothing") {
      ranked = JoinRanker.rank(train, "k", "y", Nil, Sketch.SketchConf(64))
    }
    assert(ranked == Nil)
    assert(jobs.isEmpty, s"ranking nothing ran jobs $jobs")
  }

  // Adaptive query execution submits every shuffle stage as a Spark job. The
  // query has one per distinct AGG (the exchange of its `dense_rank` window,
  // which that AGG's aggregate reads without another), one for the train
  // sketch's occurrence window, and the collect itself. The driver joins the
  // collected sketches, so no join adds a job.
  test("rank runs 2 + A Spark jobs, A the number of distinct AGGs") {
    val (train, cand) = fixtures(7)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 7}")).toDF("k", "x")
    val mixed = Seq(
      Candidate("a", cand(0.9, 71), "k", "x", AggFn.Avg),
      Candidate("b", strCand, "k", "x", AggFn.Mode),
      Candidate("c", cand(0.5, 72), "k", "x", AggFn.Max),
      Candidate("d", strCand, "k", "x", AggFn.Count),
      Candidate("e", cand(0.1, 73), "k", "x", AggFn.Min),
      Candidate("f", cand(0.0, 74), "k", "x", AggFn.First),
    )
    val avgs = (0 until 6).map(i => Candidate(s"avg$i", cand(0.15 * i, 75 + i), "k", "x", AggFn.Avg))
    def jobs(c: Seq[Candidate]): Int =
      jobsOf(s"rank-${c.map(_.name).mkString}")(JoinRanker.rank(train, "k", "y", c, Sketch.SketchConf(256))).size
    val counts = Seq(
      "one AVG"              -> jobs(avgs.take(1)),
      "six AVG"              -> jobs(avgs),
      "AVG + MODE"           -> jobs(mixed.take(2)),
      "AVG, MODE, AVG, MODE" -> jobs(Seq(avgs(0), mixed(1), avgs(1), mixed(1).copy(name = "b2"))),
      "six AGGs"             -> jobs(mixed),
    )
    assert(counts.map(_._2) == Seq(3, 3, 4, 4, 8), counts.mkString(", "))
  }

  test("two rank calls on the same tables give the same estimates, in whatever order rows arrive") {
    val (train, cand) = fixtures(8)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 5}")).toDF("k", "x")
    // AGGs whose result does not depend on the order of a key's rows, so
    // that only the order in which the sketch-join's rows arrive varies.
    val cands = Seq(
      Candidate("max", cand(0.7, 81), "k", "x", AggFn.Max),
      Candidate("str", strCand, "k", "x", AggFn.Mode),
      Candidate("min", cand(0.2, 82), "k", "x", AggFn.Min),
    )
    // Without adaptive execution, which would coalesce these small shuffles
    // into one partition, the shuffle partition count sets the order in which
    // the sketch-join's rows arrive.
    def ranked(partitions: Int): Seq[JoinRanker.Ranked] = {
      val conf = Map("spark.sql.shuffle.partitions" -> partitions.toString, "spark.sql.adaptive.enabled" -> "false")
      val prev = conf.keys.map(k => k -> spark.conf.get(k))
      conf.foreach { case (k, v) => spark.conf.set(k, v) }
      try JoinRanker.rank(train, "k", "y", cands, Sketch.SketchConf(1024))
      finally prev.foreach { case (k, v) => spark.conf.set(k, v) }
    }
    val a = ranked(8)
    for (b <- Seq(ranked(8), ranked(3), ranked(13))) {
      assert(a.map(r => (r.name, r.sketchJoinSize)) == b.map(r => (r.name, r.sketchJoinSize)))
      for ((x, y) <- a.zip(b))
        assert(java.lang.Double.compare(x.estimatedMI, y.estimatedMI) == 0, s"$x vs $y")
    }
  }

  /** A generated candidate: rows over keys `base until base + nKeys`, each
    * with 1–3 one-decimal values, read as numbers or as strings.
    */
  private final case class GenCand(rows: Seq[(Long, Double)], nKeys: Int, numeric: Boolean, agg: AggFn)

  private val allAggs = Seq(AggFn.Avg, AggFn.Mode, AggFn.Count, AggFn.Max, AggFn.Min, AggFn.First)
  private val stringAggs: Set[AggFn] = Set(AggFn.Mode, AggFn.Count, AggFn.First)

  private def genCand(numeric: Boolean, agg: AggFn, base: Long, nKeys: Int, seed: Long): GenCand = {
    val rng  = new Rng(seed)
    val rows = for (k <- 0 until nKeys; _ <- 0 to rng.nextInt(3)) yield (base + k, rng.nextInt(30) / 10.0)
    GenCand(rows, nKeys, numeric, agg)
  }

  /** A candidate whose AGG comes from `aggs`, the few AGGs a generated query
    * draws from, so that candidates often share an AGG and its aggregate.
    */
  private def genCandidate(aggs: Seq[AggFn]): Gen[GenCand] = for {
    agg     <- Gen.oneOf(aggs)
    numeric <- if (stringAggs(agg)) Gen.oneOf(true, false) else Gen.const(true)
    base    <- Gen.oneOf(0L, 1500L, 1000000L) // the last shares no train key
    nKeys   <- Gen.oneOf(Gen.choose(1, 20), Gen.choose(200, 2000))
    seed    <- Gen.choose(0L, 1000000L)
  } yield genCand(numeric, agg, base, nKeys, seed)

  private val genCands: Gen[List[GenCand]] = for {
    nAggs <- Gen.choose(1, 2)
    aggs  <- Gen.pick(nAggs, allAggs)
    c     <- Gen.choose(1, 6)
    cands <- Gen.listOfN(c, genCandidate(aggs.toSeq))
  } yield cands

  private def multiset[T](xs: Seq[T]): Map[T, Int] = xs.groupBy(identity).map { case (k, v) => k -> v.size }

  private def pairs(s: Sketch.Sample): Map[(AnyRef, AnyRef), Int] = multiset(s.x.anyValues.zip(s.y.anyValues))

  test("the candidate index holds each candidate's sketchRight, and its samples equal the per-pair sketch-join (scalacheck)") {
    val rng      = new Rng(9)
    val train    = Seq.fill(4000)((rng.nextInt(2500).toLong, rng.nextInt(50) / 10.0)).toDF("k", "y").cache()
    val trainStr = train.select(col("k"), concat(lit("t"), col("y").cast("string")) as "y").cache()
    def holds(gens: Seq[GenCand], n: Int, numericY: Boolean): Boolean = {
      val conf  = Sketch.SketchConf(n)
      val t     = if (numericY) train else trainStr
      val cands = gens.zipWithIndex.map { case (g, i) =>
        val df =
          if (g.numeric) g.rows.toDF("k", "x")
          else g.rows.map { case (k, v) => (k, s"s$v") }.toDF("k", "x")
        Candidate(s"c$i", df, "k", "x", g.agg)
      }
      val index = TupSk.index(cands.map(c => Featurize.Feature(c.df, c.key, c.value, c.agg)), conf)
        .select("cand", "hkey", "hu", "vNum", "vStr").collect()
      val samples  = JoinRanker.samples(t, "k", "y", cands, conf)
      val left     = TupSk.sketchLeft(t, "k", "y", conf)
      val leftSize = left.count()
      cands.indices.forall { i =>
        val c     = cands(i)
        val right = TupSk.sketchRight(c.df, c.key, c.value, c.agg, conf)
        val own   = right.select("hkey", "hu", "vNum", "vStr").collect().map(_.toSeq).toSeq
        val pair  = Sketch.collectSample(Sketch.join(left, right))
        val (sample, sampleLeftSize, sampleRightSize) = samples(i)
        val ok =
          own.size == math.min(n, gens(i).nKeys) &&
          multiset(index.filter(_.getInt(0) == i).map(_.toSeq.tail).toSeq) == multiset(own) &&
          pairs(sample) == pairs(pair) &&
          sample.x.isNumeric == pair.x.isNumeric && sample.y.isNumeric == pair.y.isNumeric &&
          sampleLeftSize == leftSize && sampleRightSize == own.size
        if (!ok) println(s"index oracle failed: n=$n numericY=$numericY, ${c.agg.name} candidate $i of ${cands.size}")
        ok
      }
    }
    // Numeric and string MODE share one aggregate, and two FIRST candidates
    // over overlapping keys share another that is not the union's first
    // branch: each FIRST must still pick from its own table's rows.
    val fixed = Seq(
      genCand(numeric = true, AggFn.Avg, 0L, 1800, 1),
      genCand(numeric = true, AggFn.Mode, 0L, 1800, 2),
      genCand(numeric = false, AggFn.Mode, 1500L, 900, 3),
      genCand(numeric = true, AggFn.First, 0L, 2000, 4),
      genCand(numeric = false, AggFn.First, 1500L, 2000, 5),
      genCand(numeric = true, AggFn.First, 0L, 1200, 6),
    )
    assert(holds(fixed, 256, numericY = true) && holds(fixed, 1024, numericY = false))
    val prop = Prop.forAll(genCands, Gen.oneOf(1, 7, 256, 1024), Gen.oneOf(true, false))(holds)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(16), prop)
    train.unpersist(); trainStr.unpersist()
    assert(res.passed, res.status.toString)
  }
}
