package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

class HashingSpec extends SparkSpec {
  import Hashing._

  test("fib maps longs into [0, 1)") {
    val rnd = new java.util.Random(1)
    (0 until 10000).foreach { _ =>
      val u = fib(rnd.nextLong())
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("fib is deterministic") {
    assert(fib(12345L) == fib(12345L))
    assert(fib(0L) == 0.0)
  }

  test("fib output is approximately uniform (decile counts)") {
    val rnd    = new java.util.Random(2)
    val n      = 100000
    val counts = new Array[Int](10)
    (0 until n).foreach(_ => counts((fib(rnd.nextLong()) * 10).toInt) += 1)
    counts.foreach(c => assert(math.abs(c - n / 10) < 600, counts.mkString(",")))
  }

  test("fib on sequential integers is well-spread (the Fibonacci property)") {
    val us = (1L to 1000L).map(fib)
    assert(us.distinct.size == 1000)
    val deciles = new Array[Int](10)
    us.foreach(u => deciles((u * 10).toInt) += 1)
    deciles.foreach(c => assert(math.abs(c - 100) < 30, deciles.mkString(",")))
  }

  test("hkey is type-stable: int and string keys hash identically") {
    import spark.implicits._
    val ints = Seq(1L, 2L, 3L).toDF("k").select(hkey(col("k")) as "h")
    val strs = Seq("1", "2", "3").toDF("k").select(hkey(col("k")) as "h")
    assert(ints.collect().map(_.getLong(0)).toSeq == strs.collect().map(_.getLong(0)).toSeq)
  }

  test("hkey is collision-free over a realistic key domain") {
    import spark.implicits._
    val n = 100000L
    val d = spark.range(n).select(hkey(col("id")) as "h").distinct().count()
    assert(d == n)
  }

  test("huKey is in [0,1) and deterministic in Spark") {
    import spark.implicits._
    val df = Seq("a", "b", "c").toDF("k")
    val a  = df.select(huKey(SaltKey, col("k")) as "u").collect().map(_.getDouble(0))
    val b  = df.select(huKey(SaltKey, col("k")) as "u").collect().map(_.getDouble(0))
    assert(a.toSeq == b.toSeq)
    a.foreach(u => assert(u >= 0.0 && u < 1.0))
  }

  test("different salts give different hash functions") {
    import spark.implicits._
    val df = spark.range(200).select(col("id").cast("string") as "k")
    val a  = df.select(huKey(SaltKey, col("k")) as "u").collect().map(_.getDouble(0)).toSeq
    val b  = df.select(huKey(SaltIndLeft, col("k")) as "u").collect().map(_.getDouble(0)).toSeq
    assert(a != b)
    // ...and the two rankings are essentially uncorrelated.
    val r = repro.stats.Stats.spearman(a.map(identity), b.map(identity))
    assert(math.abs(r) < 0.2, s"spearman=$r")
  }

  test("huTuple(k, 1) coordinates with the candidate-side hash domain") {
    import spark.implicits._
    val df = Seq("x", "y", "z").toDF("k")
    val l  = df.select(huTuple(SaltTuple, col("k"), lit(1)) as "u").collect().map(_.getDouble(0))
    val r  = df.select(huTuple(SaltTuple, col("k"), lit(1)) as "u").collect().map(_.getDouble(0))
    assert(l.toSeq == r.toSeq)
  }

  test("huTuple varies with the occurrence index j") {
    import spark.implicits._
    val df = Seq(("x", 1), ("x", 2), ("x", 3)).toDF("k", "j")
    val us = df.select(huTuple(SaltTuple, col("k"), col("j")) as "u").collect().map(_.getDouble(0))
    assert(us.distinct.length == 3)
  }

  test("huKey over many keys is approximately uniform") {
    import spark.implicits._
    val us = spark.range(20000).select(huKey(SaltKey, col("id")) as "u")
      .collect().map(_.getDouble(0))
    val deciles = new Array[Int](10)
    us.foreach(u => deciles((u * 10).toInt) += 1)
    deciles.foreach(c => assert(math.abs(c - 2000) < 250, deciles.mkString(",")))
  }

  test("seed before the shuffle and huAt after it give huTuple bit for bit (scalacheck)") {
    import spark.implicits._
    val j    = Gen.frequency(8 -> Gen.choose(1, 1 << 20), 1 -> Gen.const(1), 1 -> Gen.const(1 << 20))
    val text = Gen.oneOf(
      Gen.const(""),
      Gen.asciiPrintableStr,
      Gen.stringOf(Gen.choose('\u00a0', '\ud7ff')),
      Gen.listOf(Gen.oneOf("é", "ß", "日本", "\uff21", "\ud83d\ude00", "\u0000")).map(_.mkString),
      Gen.stringOfN(3000, Gen.alphaNumChar))
    // Each table's k is hashed through its string form, in Spark, on both sides of the split.
    def agrees(df: DataFrame): Boolean = Seq(SaltTuple, SaltIndLeft).forall { salt =>
      df.select(seed(salt, col("k")), col("j"), huTuple(salt, col("k"), col("j"))).collect().forall { r =>
        java.lang.Double.doubleToRawLongBits(huAt(r.getLong(0), r.getInt(1))) ==
          java.lang.Double.doubleToRawLongBits(r.getDouble(2))
      }
    }
    val tables = Gen.oneOf(
      Gen.listOf(Gen.zip(Gen.long, j)).map(_.toDF("k", "j")),
      Gen.listOf(Gen.zip(Gen.choose(-1e12, 1e12), j)).map(_.toDF("k", "j")),
      Gen.listOf(Gen.zip(text, j)).map(_.toDF("k", "j")))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), Prop.forAll(tables)(agrees))
    assert(res.passed, res.status.toString)
  }
}
