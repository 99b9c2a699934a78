package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions._

/** Hash functions used by the sketches (Section IV, "Approach Overview").
  *
  * The paper composes a collision-free integer hash `h` with a uniform hash
  * `h_u : int -> [0,1)` implemented as Fibonacci hashing. We use Catalyst's
  * native `xxhash64` for `h` (64-bit, collision-free at our scales; the paper
  * used 32-bit Murmur3 — documented substitution in DESIGN.md) and Fibonacci
  * hashing for `h_u` as in the paper.
  *
  * In a column, `h_u` is a Scala UDF rather than a column expression because
  * Spark 4 runs in ANSI mode by default, where the wrapping 64-bit multiply
  * `z * 0x9E3779B97F4A7C15` would raise an overflow error as a column expr.
  * TUPSK's and INDSK's left sketches number ⟨k, j⟩ inside a typed kernel
  * ([[repro.sketch.LeastTuples]]), so there h_u(⟨k, j⟩) comes in two parts:
  * the column [[seed]] before the shuffle and the JVM function [[huAt]] after.
  */
object Hashing {

  /** 2^64 / golden ratio, the Fibonacci hashing multiplier (Knuth vol. 3). */
  val FibMultiplier: Long = 0x9E3779B97F4A7C15L

  private val Denom: Double = (1L << 53).toDouble

  /** Fibonacci hash of a 64-bit integer to a uniform double in [0, 1). */
  def fib(z: Long): Double = ((z * FibMultiplier) >>> 11).toDouble / Denom

  private val fibUdf = udf((z: Long) => fib(z))

  /** Collision-free key hash h(k) shared by every sketch so that sketch-joins
    * on `hkey` line up across tables regardless of which scheme built them.
    * Keys are hashed through their string form so that e.g. an INT key on one
    * side joins with a VARCHAR key on the other, as open-data joins require.
    */
  def hkey(key: Column): Column = xxhash64(key.cast("string"))

  /** The salted key hash `xxhash64(salt, k)`: Spark's multi-column xxhash64
    * folds its columns left to right, each hashed with the previous hash as
    * its seed, so this is also the state [[huTuple]] hashes j from.
    */
  def seed(salt: Int, key: Column): Column = xxhash64(lit(salt), key.cast("string"))

  /** h_u over a salted key: `fib(xxhash64(salt, k))`. Distinct salts give the
    * independent hash functions the different sampling levels need.
    */
  def huKey(salt: Int, key: Column): Column = fibUdf(seed(salt, key))

  /** h_u over the occurrence tuple ⟨k, j⟩ (TUPSK's sampling frame). */
  def huTuple(salt: Int, key: Column, j: Column): Column =
    fibUdf(xxhash64(lit(salt), key.cast("string"), j.cast("int")))

  /** [[huTuple]] of ⟨k, j⟩ from k's [[seed]] `s`, on the JVM: xxhash64 folds
    * an INT column in as `XXH64.hashInt(j, s)`, so this equals
    * `huTuple(salt, k, j)` bit for bit.
    */
  def huAt(s: Long, j: Int): Double = fib(XXH64.hashInt(j, s))

  /** Salt for TUPSK's ⟨k,j⟩ domain; the candidate side hashes ⟨k,1⟩ with the
    * same salt, which is what coordinates the two sketches.
    */
  val SaltTuple = 1
  /** Salt for key-level (KMV) sampling: LV2SK/PRISK first level and CSK. */
  val SaltKey = 2
  /** Salt for LV2SK/PRISK's second level: the order of a chosen key's ⟨k, j⟩. */
  val SaltSecondLevel = 3
  /** Independent (uncoordinated) salts for INDSK's two tables. */
  val SaltIndLeft  = 4
  val SaltIndRight = 5
}
