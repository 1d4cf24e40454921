package repro.provrc

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite

class CodecSpec extends AnyFunSuite {

  private val table = Vector(
    CRow(Vector(Interval(0, 99), Interval(3, 3)),
         Vector(RelEnc(0, Interval(-2, 2)), AbsEnc(Interval(0, 7)))),
    CRow(Vector(Interval(100, 100), Interval(0, 0)),
         Vector(AbsEnc(Interval(-5, -1)), RelEnc(1, Interval(0, 0)))),
  )

  test("encode/decode roundtrip preserves rows and arity") {
    val bytes = Codec.encode(table, 2, 2)
    val (rows, nOut, nIn) = Codec.decode(bytes)
    assert((rows, nOut, nIn) == ((table, 2, 2)))
  }

  test("empty table roundtrip") {
    val (rows, nOut, nIn) = Codec.decode(Codec.encode(Vector.empty, 3, 1))
    assert(rows.isEmpty && nOut == 3 && nIn == 1)
  }

  test("negative bounds are zigzag encoded correctly") {
    val t = Vector(CRow(Vector(Interval(0, 0)), Vector(AbsEnc(Interval(-1000000, -999999)))))
    assert(Codec.decode(Codec.encode(t, 1, 1))._1 == t)
  }

  test("file roundtrip, plain") {
    val dir = Files.createTempDirectory("codec")
    val p = dir.resolve("t.prc")
    Codec.writeFile(p, table, 2, 2, gzip = false)
    assert(Codec.readFile(p, gzip = false)._1 == table)
  }

  test("file roundtrip, gzip") {
    val dir = Files.createTempDirectory("codec")
    val p = dir.resolve("t.prc.gz")
    Codec.writeFile(p, table, 2, 2, gzip = true)
    assert(Codec.readFile(p, gzip = true)._1 == table)
  }

  test("gzip helps on repetitive tables") {
    val rep = Vector.tabulate(2000)(i =>
      CRow(Vector(Interval.point(i.toLong * 2)), Vector(AbsEnc(Interval(5, 9)))))
    val dir = Files.createTempDirectory("codec")
    val plain = dir.resolve("p.prc"); val gz = dir.resolve("p.prc.gz")
    Codec.writeFile(plain, rep, 1, 1, gzip = false)
    Codec.writeFile(gz, rep, 1, 1, gzip = true)
    assert(Files.size(gz) < Files.size(plain))
    assert(Codec.readFile(gz, gzip = true)._1 == rep)
  }

  test("decode rejects garbage") {
    intercept[Exception](Codec.decode(Array[Byte](1, 2, 3, 4, 5, 6)))
  }

  test("readHeader returns arities and column names without the rows") {
    val p = Files.createTempDirectory("codec").resolve("t.prc")
    val names = Seq("b1", "b2", "a1", "a\u00e9")
    Codec.writeFile(p, table, 2, 2, gzip = false, names)
    assert(Codec.readHeader(p) == Codec.Header(2, 2, names.toVector, 2))
    assert(Codec.readFile(p, gzip = false) == ((table, 2, 2)))
  }

  // Hand-built inputs: magic, then unsigned varints. The first varint after
  // the magic is nOut << 1 | named.
  private def varint(v0: Long): Array[Byte] = {
    val b = Array.newBuilder[Byte]
    var v = v0
    while ((v & ~0x7fL) != 0) { b += ((v & 0x7f) | 0x80).toByte; v >>>= 7 }
    b += v.toByte
    b.result()
  }
  private def blob(magic: String, varints: Long*): Array[Byte] =
    magic.getBytes("US-ASCII") ++ varints.flatMap(varint)
  private def malformed(bytes: Array[Byte]): String =
    intercept[IllegalArgumentException](Codec.decode(bytes)).getMessage

  test("decode rejects a version-1 table, naming the version") {
    assert(malformed(blob("PRC1", 1, 1, 0)).contains("version 1"))
  }

  test("decode rejects a varint longer than 10 bytes") {
    val long = "PRC2".getBytes("US-ASCII") ++ Array.fill(11)(0x80.toByte) ++ Array[Byte](1)
    assert(malformed(long).contains("10 bytes"))
  }

  test("decode rejects arities and name lengths that are negative or beyond their caps") {
    assert(malformed(blob("PRC2", (Codec.MaxAxes + 1L) << 1, 1)).contains("nOut"))
    assert(malformed(blob("PRC2", -2L, 1)).contains("nOut"))
    assert(malformed(blob("PRC2", 2, -1L)).contains("nIn = -1"))
    assert(malformed(blob("PRC2", 2, 1L << 40)).contains("nIn"))
    assert(malformed(blob("PRC2", 3, 0, Codec.MaxNameBytes + 1L)).contains("column name length"))
    assert(malformed(blob("PRC2", 3, 0, -5L)).contains("column name length"))
  }

  test("decode rejects a Rel tag that names no output axis") {
    // nOut = 1, nIn = 1, unnamed, one row: out [0,0], in tag 2 (axis 1).
    assert(malformed(blob("PRC2", 2, 1, 1, 0, 0, 2, 0, 0)).contains("tag 2"))
  }

  test("decode rejects every truncation of a table") {
    val bos = new java.io.ByteArrayOutputStream()
    Codec.write(bos, table, 2, 2, Seq("b1", "b2", "a1", "a2"))
    val full = bos.toByteArray
    assert(Codec.decode(full)._1 == table)
    (0 until full.length).foreach { n =>
      assert(malformed(full.take(n)).contains("truncated"), s"prefix of $n bytes")
    }
  }

  test("compressed binary of structured lineage is tiny") {
    val rows = (0L until 100000L).map(i => Array(i, i))
    val c = ProvRC.compress(rows.iterator, 1, 1)
    val bytes = Codec.encode(c, 1, 1)
    assert(bytes.length < 64, s"expected a handful of bytes, got ${bytes.length}")
  }
}
