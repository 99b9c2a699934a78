package repro.sketch

import java.util.PriorityQueue
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.catalyst.util.SQLOrderingUtil
import org.apache.spark.sql.functions.col
import org.apache.spark.unsafe.types.UTF8String
import repro.core.Hashing

/** The left sketch of TUPSK and INDSK: the n rows of least h_u(⟨k, j⟩) over
  * the occurrence frame, a bottom-n sample (Cohen and Kaplan, PODC 2007)
  * built in one streaming pass after the shuffle.
  *
  * Before the shuffle each normalized row becomes (hkey, s, c, vNum, vStr),
  * with s = `Hashing.seed(salt, k)` and c the head of [[Sketch.contentOrder]],
  * in [[Sketch.byHkey]]'s `defaultParallelism` partitions. After it, each
  * partition is sorted by hkey alone (a radix sort on one long, which spills),
  * and [[least]] numbers each hkey run in content order, hashes every ⟨k, j⟩
  * with [[Hashing.huAt]] and keeps the partition's n least (hu, hkey).
  * [[Sketch.topN]] merges the partitions' survivors. The rows are those of
  * [[Sketch.withOccurrence]] hashed by `Hashing.huTuple` and cut by `topN`,
  * bit for bit; a task holds one key's rows plus n.
  */
object LeastTuples {

  /** A normalized row after the shuffle: key hash, k's hash seed, content hash, value. */
  final case class Occurrence(hkey: Long, s: Long, c: Long, vNum: Option[Double], vStr: Option[String])

  def apply(norm: DataFrame, salt: Int, n: Int): DataFrame = {
    val occurrences = Sketch.byHkey(norm, Hashing.seed(salt, col("k")) as "s", col("vNum"), col("vStr"))
      .sortWithinPartitions("hkey")
      .as(OccurrenceEncoder)
    Sketch.topN(occurrences.mapPartitions(least(_, n))(SketchRowEncoder).toDF(), n)
  }

  // Derived once: derived by reflection on every call, they added ~13 ms to
  // building each left sketch's plan (4 cores).
  private val OccurrenceEncoder = Encoders.product[Occurrence]
  private val SketchRowEncoder  = Encoders.product[SketchRow]

  /** The n least (hu, hkey) of rows that arrive grouped by hkey: each run is
    * sorted by (c, vNum, vStr), numbered j = 1, 2, … and offered to a bounded
    * max-heap. Keys whose hkeys collide share a run and are numbered as one
    * key, as the occurrence window numbers them.
    */
  private[sketch] def least(rows: Iterator[Occurrence], n: Int): Iterator[SketchRow] = {
    val kept = new PriorityQueue[SketchRow](byHu.reverse)
    val run  = ArrayBuffer.empty[Occurrence]
    def number(): Unit = {
      run.sortInPlace()(byContent)
      var j = 0
      while (j < run.length) {
        val o  = run(j)
        val hu = Hashing.huAt(o.s, j + 1)
        if (kept.size < n) kept.add(SketchRow(o.hkey, hu, o.vNum, o.vStr))
        else if (hu < kept.peek.hu || (hu == kept.peek.hu && o.hkey < kept.peek.hkey)) {
          kept.poll()
          kept.add(SketchRow(o.hkey, hu, o.vNum, o.vStr))
        }
        j += 1
      }
      run.clear()
    }
    rows.foreach { o =>
      if (run.nonEmpty && run.head.hkey != o.hkey) number()
      run += o
    }
    number()
    kept.iterator.asScala
  }

  /** `ORDER BY hu, hkey`. */
  private val byHu: Ordering[SketchRow] = (a, b) => {
    val byU = java.lang.Double.compare(a.hu, b.hu)
    if (byU != 0) byU else java.lang.Long.compare(a.hkey, b.hkey)
  }

  /** `ORDER BY c, vNum, vStr` as Spark sorts them: NULLs first, doubles by
    * `SQLOrderingUtil`, strings by their UTF-8 bytes (not Java's UTF-16 order).
    */
  private val byContent: Ordering[Occurrence] = (a, b) => {
    val byC = java.lang.Long.compare(a.c, b.c)
    if (byC != 0) byC
    else {
      val byNum = nullsFirst(a.vNum, b.vNum)(SQLOrderingUtil.compareDoubles)
      if (byNum != 0) byNum
      else nullsFirst(a.vStr, b.vStr)((x, y) =>
        if (x == y) 0 else UTF8String.fromString(x).binaryCompare(UTF8String.fromString(y)))
    }
  }

  private def nullsFirst[A](a: Option[A], b: Option[A])(cmp: (A, A) => Int): Int = (a, b) match {
    case (Some(x), Some(y)) => cmp(x, y)
    case _                  => java.lang.Boolean.compare(a.isDefined, b.isDefined)
  }
}
