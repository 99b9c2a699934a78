package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.discovery.JoinRanker
import repro.discovery.JoinRanker.{Candidate, Ranked}
import repro.sketch.{AggFn, Sketch}
import repro.stats.Rng

/** The paper's query: one `JoinRanker.rank` over C=6 candidates with TUPSK.
  *
  * Train: 100k rows, Zipf(0.8) keys over a 20k-key domain, target
  * y = z_k + 0.3·ε with a latent z_k per key. Candidates: 3k–20k rows over
  * the heaviest 1.5k–10k keys, 1–3 rows per key, feature
  * ρ·z_k + √(1-ρ²)·ε. Planted ρ is 0, 0.4 and 0.8, plus one candidate at
  * ρ = 1 (the one that must rank first). Candidates 1 and 5 are string
  * buckets of that feature (MODE → DC-KSG), the rest numeric
  * (AVG → MixedKSG). The last two share no key with the train table and must
  * rank last with NaN. Candidate i has 1500 + 1700·i keys, so every seed
  * asks for the same work of each kind; the seed deals the names, so the
  * ranking is not the candidates' order.
  *
  * C is small so that a timed run holds several queries: per-candidate cost
  * is what the workload measures, and a median needs samples.
  */
final class Discover(spark: SparkSession, seed: Long) extends Workload {
  import spark.implicits._

  val name       = "discover"
  val n          = 1024
  val trainRows  = 100000
  val domain     = 20000
  val nCand      = 6
  val minJoin    = 10 // JoinRanker.rank's default
  private val conf = Sketch.SketchConf(n)

  private final case class Planted(name: String, rho: Double, numeric: Boolean,
                                   disjoint: Boolean, keys: Array[Long], values: Array[Double])

  private val (trainK, trainY, planted) = generate()
  private val strongest = planted.maxBy(p => if (p.disjoint) -1.0 else p.rho).name
  private val disjoint  = planted.filter(_.disjoint).map(_.name).toSet
  val candRows: Long    = planted.map(_.keys.length.toLong).sum

  private var train: DataFrame         = _
  private var candidates: Seq[Candidate] = Nil
  private var first: Option[Seq[Ranked]] = None

  def params: Seq[(String, Any)] =
    Seq("n" -> n, "N" -> trainRows, "C" -> nCand, "key_domain" -> domain,
        "candidate_rows" -> candRows)

  private def generate() = {
    val rng  = new Rng(seed)
    val perm = shuffled(rng, domain)
    val z    = Array.fill(domain)(rng.nextGaussian())
    val cdf  = Rng.zipfCdf(domain, 0.8)
    val tk   = new Array[Long](trainRows)
    val ty   = new Array[Double](trainRows)
    for (i <- 0 until trainRows) {
      val r = rng.zipf(cdf) - 1
      tk(i) = perm(r).toLong
      ty(i) = z(r) + 0.3 * rng.nextGaussian()
    }
    val slots = shuffled(rng, nCand)
    val cands = (0 until nCand).map { i =>
      val isDisjoint = i >= nCand - 2
      val rho        = if (isDisjoint) 0.5 else if (i == nCand - 3) 1.0 else 0.8 * i / (nCand - 4)
      val numeric    = if (isDisjoint) i == nCand - 2 else i % 3 != 1
      val nKeys      = 1500 + 8500 * i / (nCand - 1)
      val ks = Array.newBuilder[Long]; val vs = Array.newBuilder[Double]
      for (r <- 0 until nKeys) {
        val id = if (isDisjoint) domain + r else perm(r)
        for (_ <- 0 to rng.nextInt(3)) {
          ks += id.toLong
          vs += rho * z(r) + math.sqrt(1 - rho * rho) * rng.nextGaussian()
        }
      }
      Planted(f"cand${slots(i)}%02d", rho, numeric, isDisjoint, ks.result(), vs.result())
    }
    (tk, ty, cands)
  }

  private def shuffled(rng: Rng, size: Int): Array[Int] = {
    val a = Array.tabulate(size)(identity)
    for (i <- size - 1 to 1 by -1) {
      val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t
    }
    a
  }

  /** String feature: the numeric feature cut into six buckets. */
  private def bucket(v: Double): String =
    "s" + Seq(-1.0, -0.4, 0.0, 0.4, 1.0).count(v >= _)

  def prepare(): Unit = {
    // Rows are encoded on the executors, one slice per core.
    val sc = spark.sparkContext
    train = sc.parallelize(trainK.indices.map(i => (trainK(i), trainY(i)))).toDF("k", "y").cache()
    candidates = planted.map { p =>
      val df =
        if (p.numeric) sc.parallelize(p.keys.indices.map(i => (p.keys(i), p.values(i)))).toDF("k", "v")
        else sc.parallelize(p.keys.indices.map(i => (p.keys(i), bucket(p.values(i))))).toDF("k", "v")
      Candidate(p.name, df.cache(), "k", "v", if (p.numeric) AggFn.Avg else AggFn.Mode)
    }
    // One job fills every cache: each branch of the union scans a cached table.
    val counted = (train +: candidates.map(_.df)).map(_.select("k")).reduce(_ union _).count()
    require(counted == trainRows + candRows, s"counted $counted input rows")
  }

  def release(): Unit = {
    if (train != null) train.unpersist()
    candidates.foreach(_.df.unpersist())
  }

  def run(opIndex: Int, t: Tracer): OpResult =
    if (t.tracingNow) staged(t) else ranked()

  private def ranked(): OpResult = {
    val t0     = System.nanoTime()
    val result = JoinRanker.rank(train, "k", "y", candidates, conf)
    val wall   = Workload.ms(t0)
    val joined = result.filter(_.sketchJoinSize > 0)
    OpResult(wall, nCand, trainRows + candRows, wall, check(result),
      Map(
        "discovery.rank_ms"          -> wall,
        "discovery.nan_candidates"   -> result.count(_.estimatedMI.isNaN).toDouble,
        "discovery.join_rows_per_n"  ->
          (if (joined.isEmpty) 0.0 else joined.map(_.sketchJoinSize).sum.toDouble / joined.size / n),
      ))
  }

  private def check(result: Seq[Ranked]): Seq[String] = {
    val reference = first.getOrElse { first = Some(result); result }
    val failures  = Seq.newBuilder[String]
    val same = result.size == reference.size && result.zip(reference).forall { case (a, b) =>
      a.name == b.name && a.sketchJoinSize == b.sketchJoinSize && Workload.sameEstimate(a.estimatedMI, b.estimatedMI)
    }
    if (!same) failures += "ranking differs from the first query's"
    if (result.headOption.map(_.name) != Some(strongest))
      failures += s"top candidate is ${result.headOption.map(_.name)}, planted strongest is $strongest"
    val tail = result.takeRight(2)
    if (tail.map(_.name).toSet != disjoint || !tail.forall(_.estimatedMI.isNaN))
      failures += s"last two are ${tail.map(r => s"${r.name}=${r.estimatedMI}")}, expected NaN for $disjoint"
    failures.result()
  }

  /** `JoinRanker.rank` replayed layer by layer with TUPSK staged; its
    * estimates must match the reference ranking.
    */
  private def staged(t: Tracer): OpResult = {
    val t0 = System.nanoTime()
    val est = t.span("discovery.rank") {
      val left = t.span("sketch.left")(StagedTupSk.left(t, train, "k", "y", n))
      try candidates.map { c =>
        val right  = t.span("sketch.right")(StagedTupSk.right(t, c.df, c.key, c.value, c.agg, n))
        val sample = t.span("sketch.join_collect")(Sketch.collectSample(Sketch.join(left, right)))
        right.unpersist()
        val mi = if (sample.size < minJoin) Double.NaN else Workload.estimate(t, sample.x, sample.y)
        c.name -> (mi, sample.size)
      }.toMap
      finally left.unpersist()
    }
    val wall = Workload.ms(t0)
    val mismatches = first.toSeq.flatten.count { r =>
      est.get(r.name).forall { case (mi, size) => size != r.sketchJoinSize || !Workload.sameEstimate(mi, r.estimatedMI) }
    }
    OpResult(wall, nCand, trainRows + candRows, wall, Nil, stagedMismatches = mismatches)
  }
}
