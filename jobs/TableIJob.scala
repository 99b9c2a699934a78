package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.TableIExp

/** spark-submit entrypoint reproducing Table I (synthetic sketch accuracy).
  * Usage: TableIJob [sketchSize] [trinomialTrialsPerM] [cdunifTrials] [seed]
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val n       = if (args.length > 0) args(0).toInt else TableIExp.SketchN
    val triPerM = if (args.length > 1) args(1).toInt else 6
    val cd      = if (args.length > 2) args(2).toInt else 30
    val seed    = if (args.length > 3) args(3).toLong else 7L
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-table1")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try {
      val recs = TableIExp.run(spark, n, triPerM, cd, seed)
      println(TableIExp.format(TableIExp.summarize(recs, n)))
    } finally spark.stop()
  }
}
