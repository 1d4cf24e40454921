package repro.store

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.arrays.LineageGen
import repro.core.{LineageCompressor, ProvRCTable}
import repro.provrc.{Codec, ProvRC}

class FormatsSpec extends SparkSpec {

  private def tmp(name: String): String =
    Files.createTempDirectory(s"fmt-$name").resolve("data").toString

  private def sortedRows(df: org.apache.spark.sql.DataFrame): Seq[Seq[Long]] =
    df.collect().map(r => (0 until r.length).map(r.getLong)).toSeq.sortBy(_.mkString(","))

  test("RawCsv roundtrip") {
    val df = LineageGen.aggregate2d(spark, 30, 20, axis = 1)
    val dir = tmp("csv")
    Formats.RawCsv.write(df, dir)
    assert(sortedRows(Formats.RawCsv.read(spark, dir)) == sortedRows(df))
    assert(IOUtil.sizeBytes(dir) > 0)
  }

  test("ArrayBin roundtrip via DataFrame") {
    val df = LineageGen.elementwise(spark, Seq(500L))
    val dir = tmp("bin")
    Formats.ArrayBin.write(df, dir)
    assert(sortedRows(Formats.ArrayBin.read(spark, dir)) == sortedRows(df))
  }

  test("ArrayBin column read matches row count and content") {
    val df = LineageGen.tile1d(spark, 100, 3)
    val dir = tmp("bincols")
    Formats.ArrayBin.write(df, dir)
    val cols = Formats.ArrayBin.readColumns(dir)
    assert(cols.length == 2)
    assert(cols(0).length == 300)
    val pairs = cols(0).zip(cols(1)).map { case (b, a) => Seq(b, a) }.toSeq.sortBy(_.mkString(","))
    assert(pairs == sortedRows(df))
  }

  test("ArrayBin is ~16 bytes per row (uncompressed)") {
    val df = LineageGen.elementwise(spark, Seq(10000L))
    val dir = tmp("binsz")
    Formats.ArrayBin.write(df, dir)
    assert(IOUtil.sizeBytes(dir) == 10000L * 2 * 8)
  }

  test("Parquet snappy and gzip roundtrip; gzip is no larger") {
    val df = LineageGen.sortPerm(spark, 20000, seed = 5)
    val d1 = tmp("pq"); val d2 = tmp("pqgz")
    Formats.Parquet.write(df, d1, "snappy")
    Formats.Parquet.write(df, d2, "gzip")
    assert(sortedRows(Formats.Parquet.read(spark, d1)) == sortedRows(df))
    assert(sortedRows(Formats.Parquet.read(spark, d2)) == sortedRows(df))
    assert(IOUtil.sizeBytes(d2) <= IOUtil.sizeBytes(d1))
  }

  test("TurboRC roundtrip") {
    val df = LineageGen.aggregate2d(spark, 40, 25, axis = 1)
    val dir = tmp("trc")
    TurboRC.write(df, dir)
    assert(sortedRows(TurboRC.read(spark, dir)) == sortedRows(df))
  }

  test("TurboRC roundtrip on permutation lineage") {
    val df = LineageGen.sortPerm(spark, 5000, seed = 1)
    val dir = tmp("trcperm")
    TurboRC.write(df, dir)
    assert(sortedRows(TurboRC.read(spark, dir)) == sortedRows(df))
  }

  test("TurboRC column codec: RLE roundtrip") {
    val vals = Array.fill(1000)(7L) ++ Array.fill(500)(9L) ++ (0L until 100L).toArray
    val enc = TurboRC.encodeColumn(vals)
    assert(TurboRC.decodeColumn(enc, vals.length).sameElements(vals))
  }

  test("TurboRC column codec: delta roundtrip with negatives") {
    val vals = Array(-100L, 50L, -3L, 0L, 7L, 7L, -7L)
    val enc = TurboRC.encodeColumn(vals)
    assert(TurboRC.decodeColumn(enc, vals.length).sameElements(vals))
  }

  test("TurboRC compresses runs far better than raw") {
    val df = LineageGen.aggregate2d(spark, 100, 100, axis = 1)
    val trc = tmp("trcsz"); val bin = tmp("binsz2")
    TurboRC.write(df, trc)
    Formats.ArrayBin.write(df, bin)
    assert(IOUtil.sizeBytes(trc) < IOUtil.sizeBytes(bin) / 4)
  }

  test("ProvRC store roundtrip, plain and gzip") {
    val df = LineageGen.conv2dSame(spark, 32, 32, 3, 3)
    val c = LineageCompressor.compress(df, nOut = 2)
    val dir = tmp("prc")
    val gz = Paths.get(tmp("prcgz"), "t.prc.gz")
    ProvRCTable.write(dir, c, 2, 2, Seq("b1", "b2"), Seq("a1", "a2"))
    Codec.writeFile(gz, c, 2, 2, gzip = true)
    assert(Codec.readFile(Paths.get(dir, "table.prc"), gzip = false)._1 == c)
    assert(Codec.readFile(gz, gzip = true)._1 == c)
  }

  test("ProvRC beats every baseline on structured lineage size") {
    val df = LineageGen.aggregate2d(spark, 200, 100, axis = 1)
    val c = LineageCompressor.compress(df, nOut = 1)
    val dirs = Map(
      "csv" -> tmp("c1"), "bin" -> tmp("c2"), "pq" -> tmp("c3"), "trc" -> tmp("c4"))
    Formats.RawCsv.write(df, dirs("csv"))
    Formats.ArrayBin.write(df, dirs("bin"))
    Formats.Parquet.write(df, dirs("pq"), "snappy")
    TurboRC.write(df, dirs("trc"))
    val prc = tmp("c5")
    ProvRCTable.write(prc, c, 1, 2, df.columns.take(1).toSeq, df.columns.drop(1).toSeq)
    val prcSize = IOUtil.sizeBytes(prc)
    dirs.values.foreach(d => assert(prcSize < IOUtil.sizeBytes(d), s"provrc $prcSize vs $d"))
  }

  test("decompressed ProvRC store equals the original relation") {
    val df = LineageGen.tile1d(spark, 300, 2)
    val c = LineageCompressor.compress(df, nOut = 1)
    val dir = tmp("rt")
    ProvRCTable.write(dir, c, 1, 1, Seq("b1"), Seq("a1"))
    val (rows, _, _) = Codec.readFile(Paths.get(dir, "table.prc"), gzip = false)
    assert(ProvRC.decompress(rows).map(_.toVector).toSet ==
      df.collect().map(r => Vector(r.getLong(0), r.getLong(1))).toSet)
  }
}
