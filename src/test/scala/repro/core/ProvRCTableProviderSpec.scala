package repro.core

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.arrays.LineageGen

class ProvRCTableProviderSpec extends SparkSpec {

  private def writeTable(nOut: Int, df: org.apache.spark.sql.DataFrame): String = {
    val dir = Files.createTempDirectory("prctable").resolve("t").toString
    val rows = LineageCompressor.compress(df, nOut)
    val cols = df.columns.toSeq
    ProvRCTable.write(dir, rows, nOut, cols.size - nOut, cols.take(nOut), cols.drop(nOut))
    dir
  }

  test("full scan decompresses the exact relation") {
    val df = LineageGen.aggregate2d(spark, 40, 30, axis = 1)
    val dir = writeTable(1, df)
    val back = spark.read.format("provrc").load(dir)
    assert(back.columns.toSeq == Seq("b1", "a1", "a2"))
    assert(back.collect().map(_.toSeq).toSet == df.collect().map(_.toSeq).toSet)
  }

  test("a table is the one file table.prc, which loads alone with its column names") {
    val df = LineageGen.aggregate2d(spark, 40, 30, axis = 1)
    val dir = writeTable(1, df)
    assert(new java.io.File(dir).list().toSeq == Seq("table.prc"))
    val copy = Files.createTempDirectory("prccopy").resolve("t")
    Files.createDirectories(copy)
    Files.copy(Paths.get(dir, "table.prc"), copy.resolve("table.prc"))
    val back = spark.read.format("provrc").load(copy.toString)
    assert(back.columns.toSeq == Seq("b1", "a1", "a2"))
    assert(back.collect().map(_.toSeq).toSet == df.collect().map(_.toSeq).toSet)
  }

  test("short name 'provrc' resolves via DataSourceRegister") {
    val df = LineageGen.elementwise(spark, Seq(50L))
    val dir = writeTable(1, df)
    assert(spark.read.format("provrc").load(dir).count() == 50)
  }

  test("range predicate on key column is pushed down and answered in situ") {
    val df = LineageGen.elementwise(spark, Seq(100000L))
    val dir = writeTable(1, df)
    val scan = spark.read.format("provrc").load(dir).filter("b1 >= 10 AND b1 <= 19")
    val rows = scan.collect()
    assert(rows.length == 10)
    assert(rows.map(_.getLong(1)).sorted.toSeq == (10L to 19L))
    // the pushed filter must appear in the physical plan scan node
    val plan = scan.queryExecution.executedPlan.toString
    assert(plan.contains("provrc") || plan.toLowerCase.contains("batchscan"))
  }

  test("equality predicate prunes to a single output cell") {
    val df = LineageGen.aggregate2d(spark, 500, 400, axis = 1)
    val dir = writeTable(1, df)
    val rows = spark.read.format("provrc").load(dir).filter("b1 = 77").collect()
    assert(rows.length == 400)
    assert(rows.forall(_.getLong(0) == 77L))
    assert(rows.forall(_.getLong(1) == 77L))
  }

  test("contradictory predicates return an empty result") {
    val df = LineageGen.elementwise(spark, Seq(100L))
    val dir = writeTable(1, df)
    assert(spark.read.format("provrc").load(dir).filter("b1 > 50 AND b1 < 10").count() == 0)
  }

  test("predicates on value-side columns are NOT pushed (residual filtering still correct)") {
    val df = LineageGen.aggregate2d(spark, 30, 20, axis = 1)
    val dir = writeTable(1, df)
    val rows = spark.read.format("provrc").load(dir).filter("a2 = 5").collect()
    assert(rows.length == 30)
    assert(rows.forall(_.getLong(2) == 5L))
  }

  test("filtered scan over sql interface") {
    val df = LineageGen.tile1d(spark, 1000, 3)
    val dir = writeTable(1, df)
    spark.read.format("provrc").load(dir).createOrReplaceTempView("lin")
    val out = spark.sql("SELECT a1 FROM lin WHERE b1 BETWEEN 2000 AND 2004 ORDER BY a1")
    assert(out.collect().map(_.getLong(0)).toSeq == (0L to 4L))
  }
}
