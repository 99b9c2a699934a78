package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.PerfExp

/** spark-submit entrypoint for the Section V-D performance exemplars.
  * Usage: PerfJob [size1,size2,...] [sketchSize]
  */
object PerfJob {
  def main(args: Array[String]): Unit = {
    val sizes = if (args.length > 0) args(0).split(",").map(_.toInt).toSeq
                else Seq(5000, 10000, 20000)
    val n     = if (args.length > 1) args(1).toInt else 256
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-perf")
      .config("spark.sql.shuffle.partitions", 8)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(PerfExp.format(PerfExp.run(spark, sizes, n)))
    finally spark.stop()
  }
}
