package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}

/** Where the benches write their tables: `bench/results`, passed in by
  * build.sbt as BENCH_RESULTS, so the files land there whatever the forked
  * JVM's working directory is.
  */
object Results {
  def write(file: String, text: String): Unit = {
    val dir = Paths.get(sys.env.getOrElse("BENCH_RESULTS",
      sys.error("BENCH_RESULTS is not set: run the benches with sbt \"bench/test\"")))
    Files.createDirectories(dir)
    Files.write(dir.resolve(file), (text + "\n").getBytes,
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
