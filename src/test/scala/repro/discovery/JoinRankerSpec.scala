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
        val (sample, sampleLeftSize, sampleRightSize, _) = samples(i)
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

  /** Two rankings agree bit for bit, in order, apart from where the candidates' sketches came from. */
  private def assertSame(a: Seq[JoinRanker.Ranked], b: Seq[JoinRanker.Ranked]): Unit = {
    assert(a.map(_.copy(estimatedMI = 0.0, rightSketch = "")) == b.map(_.copy(estimatedMI = 0.0, rightSketch = "")),
      s"$a vs $b")
    for ((x, y) <- a.zip(b))
      assert(java.lang.Double.compare(x.estimatedMI, y.estimatedMI) == 0, s"$x vs $y")
  }

  private def sources(ranked: Seq[JoinRanker.Ranked]): Map[String, String] =
    ranked.map(r => r.name -> r.rightSketch).toMap

  /** Rank, with the number of Spark jobs the call ran. */
  private def rankJobs(group: String, train: org.apache.spark.sql.DataFrame, cands: Seq[Candidate],
                       n: Int = 256): (Seq[JoinRanker.Ranked], Int) = {
    var ranked: Seq[JoinRanker.Ranked] = Nil
    val jobs = jobsOf(group) { ranked = JoinRanker.rank(train, "k", "y", cands, Sketch.SketchConf(n)) }
    (ranked, jobs.size)
  }

  test("a second rank over cached candidates holds their sketches, equals the first bit for bit and runs 2 jobs") {
    val (train, cand) = fixtures(101)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 6}")).toDF("k", "x").cache()
    val cands = Seq(
      Candidate("avg", cand(0.9, 1011).cache(), "k", "x", AggFn.Avg),
      Candidate("mode", strCand, "k", "x", AggFn.Mode),
      Candidate("max", cand(0.4, 1012).cache(), "k", "x", AggFn.Max),
    )
    try {
      cands.foreach(_.df.count()) // fill the caches, which would add jobs of their own
      val (cold, coldJobs) = rankJobs("held-cold", train, cands)
      val (warm, warmJobs) = rankJobs("held-warm", train, cands)
      assert(coldJobs == 5 && warmJobs == 2, s"cold $coldJobs jobs, warm $warmJobs")
      assert(cold.forall(_.rightSketch == JoinRanker.Built), cold.mkString(", "))
      assert(warm.forall(_.rightSketch == JoinRanker.Held), warm.mkString(", "))
      assertSame(cold, warm)
    } finally cands.foreach(_.df.unpersist())
  }

  test("uncached candidates are sketched again on every call, in 2 + A jobs") {
    val (train, cand) = fixtures(102)
    val strCand = (0 until 3000).map(i => (i.toLong, s"c${i % 4}")).toDF("k", "x")
    val cands = Seq(
      Candidate("avg", cand(0.8, 1021), "k", "x", AggFn.Avg),
      Candidate("mode", strCand, "k", "x", AggFn.Mode),
    )
    val runs = (1 to 3).map(i => rankJobs(s"uncached-$i", train, cands))
    assert(runs.map(_._2) == Seq(4, 4, 4), runs.map(_._2).mkString(", "))
    for ((ranked, _) <- runs) {
      assert(ranked.forall(_.rightSketch == JoinRanker.Built), ranked.mkString(", "))
      assertSame(runs.head._1, ranked)
    }
  }

  test("after an unpersist, or a re-cache of changed rows, the next call builds that candidate's sketch again") {
    val (train, cand) = fixtures(103)
    val rng   = new Rng(1031)
    val noise = Array.fill(3000)(rng.nextDouble())
    // A table whose rows follow `JoinRankerSpec.Source.dep` when it is (re)computed.
    val related = cand(1.0, 1032).select("k", "x").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val bySource = org.apache.spark.sql.functions.udf { (k: Long) =>
      val d = JoinRankerSpec.Source.dep
      d * related(k) + (1 - d) * noise(k.toInt)
    }
    val live = spark.range(3000).select(col("id") as "k", bySource(col("id")) as "x")
    def copyOf(dep: Double) = (0 until 3000).map(i => (i.toLong, dep * related(i.toLong) + (1 - dep) * noise(i))).toDF("k", "x")
    def rankOne(df: org.apache.spark.sql.DataFrame) = JoinRanker.rank(train, "k", "y",
      Seq(Candidate("c", df, "k", "x", AggFn.Avg)), Sketch.SketchConf(512)).head
    JoinRankerSpec.Source.dep = 0.9
    live.cache()
    try {
      val first  = rankOne(live)
      val second = rankOne(live)
      assert(first.rightSketch == JoinRanker.Built && second.rightSketch == JoinRanker.Held)
      assertSame(Seq(first), Seq(rankOne(copyOf(0.9))))
      live.unpersist()
      val uncached = rankOne(live)
      assert(uncached.rightSketch == JoinRanker.Built)
      assertSame(Seq(first), Seq(uncached))
      JoinRankerSpec.Source.dep = 0.0
      live.cache()
      val recached = rankOne(live)
      assert(recached.rightSketch == JoinRanker.Built, recached.toString)
      assertSame(Seq(recached), Seq(rankOne(copyOf(0.0))))
      assert(recached.estimatedMI < first.estimatedMI, s"$recached vs $first")
      assert(rankOne(live).rightSketch == JoinRanker.Held)
    } finally live.unpersist()
  }

  test("one cached table gets a sketch of its own per AGG, value column and n") {
    val (train, _) = fixtures(104)
    val rng = new Rng(1041)
    val wide = (0 until 3000).flatMap { i =>
      Seq.fill(1 + rng.nextInt(2))((i.toLong, rng.nextDouble() + i / 3000.0, rng.nextDouble()))
    }
    val cached = wide.toDF("k", "x", "z").cache()
    val cands = Seq(
      Candidate("avgX", cached, "k", "x", AggFn.Avg),
      Candidate("maxX", cached, "k", "x", AggFn.Max),
      Candidate("avgZ", cached, "k", "z", AggFn.Avg),
    )
    // The same rows, each candidate uncached and so built on every call.
    val cold = cands.map(c => c.copy(df = c.df.select(col("k"), col(c.value) + 0.0 as c.value)))
    try {
      for (n <- Seq(256, 512)) {
        val (built, _) = rankJobs(s"per-spec-$n-built", train, cands, n)
        val (held, heldJobs) = rankJobs(s"per-spec-$n-held", train, cands, n)
        assert(sources(built).values.forall(_ == JoinRanker.Built), s"n=$n: $built")
        assert(sources(held).values.forall(_ == JoinRanker.Held) && heldJobs == 2, s"n=$n: $heldJobs jobs, $held")
        val (reference, _) = rankJobs(s"per-spec-$n-cold", train, cold, n)
        assert(sources(reference).values.forall(_ == JoinRanker.Built), s"n=$n: $reference")
        assertSame(reference, built)
        assertSame(reference, held)
      }
    } finally cached.unpersist()
  }

  test("a call with some sketches held indexes only the others, and equals an all-cold call bit for bit") {
    val (train, cand) = fixtures(105)
    val strA = (0 until 3000).map(i => (i.toLong, s"a${i % 5}")).toDF("k", "x")
    val strB = (500 until 2500).map(i => (i.toLong, s"b${(i * 7) % 9}")).toDF("k", "x")
    val cands = Seq(
      Candidate("heldA", strA, "k", "x", AggFn.Mode),
      Candidate("heldB", strB, "k", "x", AggFn.Mode),
      Candidate("cachedCold", cand(0.7, 1051), "k", "x", AggFn.Avg),
      Candidate("uncached", cand(0.3, 1052), "k", "x", AggFn.Avg),
    )
    val (allCold, coldJobs) = rankJobs("mixed-all-cold", train, cands)
    assert(coldJobs == 4 && allCold.forall(_.rightSketch == JoinRanker.Built), s"$coldJobs jobs: $allCold")
    cands.take(3).foreach(_.df.cache().count())
    try {
      rankJobs("mixed-warm-up", train, cands.take(2))
      val (mixed, mixedJobs) = rankJobs("mixed", train, cands)
      // Only the AVG candidates are indexed: the MODE aggregate does not run.
      assert(mixedJobs == 3, s"$mixedJobs jobs")
      assert(sources(mixed) == Map("heldA" -> JoinRanker.Held, "heldB" -> JoinRanker.Held,
        "cachedCold" -> JoinRanker.Built, "uncached" -> JoinRanker.Built), mixed.mkString(", "))
      assertSame(allCold, mixed)
    } finally cands.foreach(_.df.unpersist())
  }

  test("a NaN estimate says why: NO_OVERLAP for an empty sketch-join, BELOW_MIN_JOIN for 1 to MinJoin - 1 rows") {
    val (train, cand) = fixtures(106)
    val few      = (0 until JoinRanker.MinJoin - 1).map(i => (i.toLong, i.toDouble)).toDF("k", "x")
    val one      = Seq((7L, 1.0)).toDF("k", "x")
    val disjoint = (100000 until 100500).map(i => (i.toLong, 1.0)).toDF("k", "x")
    // n above the train table's 3000 rows: its sketch holds every key.
    val ranked = JoinRanker.rank(train, "k", "y",
      Seq(
        Candidate("joinable", cand(0.6, 1061), "k", "x", AggFn.Avg),
        Candidate("few", few, "k", "x", AggFn.Avg),
        Candidate("one", one, "k", "x", AggFn.Avg),
        Candidate("disjoint", disjoint, "k", "x", AggFn.Avg),
      ),
      Sketch.SketchConf(4096)).map(r => r.name -> r).toMap
    assert(ranked("joinable").nanReason.isEmpty && !ranked("joinable").estimatedMI.isNaN)
    assert(ranked("few").sketchJoinSize == JoinRanker.MinJoin - 1 && ranked("few").estimatedMI.isNaN)
    assert(ranked("few").nanReason.contains(JoinRanker.BelowMinJoin))
    assert(ranked("one").sketchJoinSize == 1 && ranked("one").nanReason.contains(JoinRanker.BelowMinJoin))
    assert(ranked("disjoint").sketchJoinSize == 0 && ranked("disjoint").nanReason.contains(JoinRanker.NoOverlap))
    assert(ranked.values.forall(r => r.estimatedMI.isNaN == r.nanReason.isDefined), ranked.values.mkString(", "))
  }
}

object JoinRankerSpec {
  /** What a UDF-backed test table reads when its rows are computed. */
  object Source { @volatile var dep: Double = 0.0 }
}
