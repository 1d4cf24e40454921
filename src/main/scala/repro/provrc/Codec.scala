package repro.provrc

import java.io._
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.zip.{GZIPInputStream, GZIPOutputStream}

/** Compact binary serialization for ProvRC-compressed lineage tables. One
  * file is one self-describing table.
  *
  * Layout, version 2 (all varints; signed values zig-zag encoded):
  * {{{
  *   magic "PRC2" | (nOut << 1 | named) | nIn
  *   if named: nOut + nIn column names (key side first),
  *             each byteLength | UTF-8 bytes
  *   rowCount
  *   per row:
  *     per output axis: zz(lo), (hi - lo)
  *     per input axis : tag (0 = Abs, 1 + j = Rel against axis j),
  *                      zz(lo), (hi - lo)
  * }}}
  * Blobs that name no columns (partition and scan chunks) clear the `named`
  * bit, so they are exactly as long as in version 1: Table IX counts an op
  * as compressed by the encoded size of its unnamed tables.
  * The optional gzip wrapper is the paper's ProvRC-GZip variant.
  *
  * Reading checks every header field against [[MaxAxes]] and
  * [[MaxNameBytes]] before it allocates anything sized by it, and fails
  * with an `IllegalArgumentException` naming the fault on malformed input.
  */
object Codec {

  private val Magic = 0x50524332 // "PRC2"
  private val MagicV1 = 0x50524331 // "PRC1", no column names

  /** Largest `nOut` and largest `nIn` a table may declare. */
  val MaxAxes = 64

  /** Largest UTF-8 length of one column name. */
  val MaxNameBytes = 1024

  /** Arities and column names of a stored table; `names` is empty for an
    * unnamed blob.
    */
  final case class Header(nOut: Int, nIn: Int, names: Vector[String], rowCount: Long)

  private def malformed(msg: String): Nothing =
    throw new IllegalArgumentException(s"malformed ProvRC table: $msg")

  // ------------------------------------------------------------- varints

  private def writeVarLong(o: OutputStream, v0: Long): Unit = {
    var v = v0
    require(v >= 0, s"varint must be non-negative: $v")
    while ((v & ~0x7fL) != 0) { o.write(((v & 0x7f) | 0x80).toInt); v >>>= 7 }
    o.write(v.toInt)
  }

  private def zigzag(v: Long): Long = (v << 1) ^ (v >> 63)
  private def unzigzag(v: Long): Long = (v >>> 1) ^ -(v & 1)

  private def readVarLong(in: InputStream): Long = {
    var shift = 0
    var result = 0L
    while (true) {
      val b = in.read()
      if (b < 0) malformed("truncated")
      // The tenth byte holds bit 63 only.
      if (shift == 63 && b > 1) malformed("varint longer than 10 bytes or beyond 64 bits")
      result |= (b.toLong & 0x7f) << shift
      if ((b & 0x80) == 0) return result
      shift += 7
    }
    result
  }

  /** A varint that must lie in `[0, max]`, checked before it is used. */
  private def readBounded(in: InputStream, what: String, max: Int): Int = {
    val v = readVarLong(in)
    if (v < 0 || v > max) malformed(s"$what = $v is outside [0, $max]")
    v.toInt
  }

  // ------------------------------------------------------------ encoding

  /** `names` holds `nOut + nIn` column names, or is empty for an unnamed blob. */
  def write(
      o: OutputStream,
      rows: Iterable[CRow],
      nOut: Int,
      nIn: Int,
      names: Seq[String] = Seq.empty,
  ): Unit = {
    require(nOut >= 0 && nOut <= MaxAxes && nIn >= 0 && nIn <= MaxAxes, s"arity ($nOut, $nIn) beyond $MaxAxes")
    require(names.isEmpty || names.size == nOut + nIn, "need one name per column")
    val d = new DataOutputStream(o)
    d.writeInt(Magic)
    writeVarLong(d, nOut.toLong << 1 | (if (names.isEmpty) 0 else 1))
    writeVarLong(d, nIn.toLong)
    names.foreach { n =>
      val b = n.getBytes(UTF_8)
      require(b.length <= MaxNameBytes, s"column name longer than $MaxNameBytes bytes")
      writeVarLong(d, b.length.toLong)
      d.write(b)
    }
    writeVarLong(d, rows.size.toLong)
    rows.foreach { r =>
      require(r.out.size == nOut && r.in.size == nIn, "row arity mismatch")
      r.out.foreach { iv => writeVarLong(d, zigzag(iv.lo)); writeVarLong(d, iv.hi - iv.lo) }
      r.in.foreach {
        case AbsEnc(iv) =>
          writeVarLong(d, 0L)
          writeVarLong(d, zigzag(iv.lo)); writeVarLong(d, iv.hi - iv.lo)
        case RelEnc(j, dd) =>
          writeVarLong(d, 1L + j)
          writeVarLong(d, zigzag(dd.lo)); writeVarLong(d, dd.hi - dd.lo)
      }
    }
    d.flush()
  }

  private def readHeader(in: InputStream): Header = {
    val magic = (0 until 4).foldLeft(0) { (m, _) =>
      val b = in.read()
      if (b < 0) malformed("truncated")
      (m << 8) | b
    }
    if (magic == MagicV1)
      malformed("format version 1 (PRC1) is no longer read; this reader reads version 2 (PRC2)")
    if (magic != Magic) malformed("not a ProvRC table")
    val nOutNamed = readVarLong(in)
    val nOut = nOutNamed >>> 1
    if (nOut > MaxAxes) malformed(s"nOut = $nOut is outside [0, $MaxAxes]")
    val nIn = readBounded(in, "nIn", MaxAxes)
    val names = Vector.fill(if ((nOutNamed & 1) == 1) nOut.toInt + nIn else 0) {
      val len = readBounded(in, "column name length", MaxNameBytes)
      val b = in.readNBytes(len)
      if (b.length < len) malformed("truncated")
      new String(b, UTF_8)
    }
    val n = readVarLong(in)
    if (n < 0) malformed(s"negative row count $n")
    Header(nOut.toInt, nIn, names, n)
  }

  /** Reads only the header of a plain (not gzipped) table file. */
  def readHeader(path: Path): Header = {
    val in = new BufferedInputStream(Files.newInputStream(path))
    try readHeader(in)
    finally in.close()
  }

  def read(in0: InputStream): (Vector[CRow], Int, Int) = {
    val in = new BufferedInputStream(in0)
    val Header(nOut, nIn, _, n) = readHeader(in)
    val rows = Vector.newBuilder[CRow]
    var i = 0L
    while (i < n) {
      val out = Vector.fill(nOut) {
        val lo = unzigzag(readVarLong(in)); Interval(lo, lo + readVarLong(in))
      }
      val inn = Vector.fill(nIn) {
        val tag = readVarLong(in)
        if (tag < 0 || tag > nOut) malformed(s"input encoding tag $tag is not Abs (0) or Rel (1..$nOut)")
        val lo = unzigzag(readVarLong(in))
        val iv = Interval(lo, lo + readVarLong(in))
        if (tag == 0) AbsEnc(iv): InEnc else RelEnc((tag - 1).toInt, iv)
      }
      rows += CRow(out, inn)
      i += 1
    }
    (rows.result(), nOut, nIn)
  }

  def encode(rows: Iterable[CRow], nOut: Int, nIn: Int): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    write(bos, rows, nOut, nIn)
    bos.toByteArray
  }

  def decode(bytes: Array[Byte]): (Vector[CRow], Int, Int) =
    read(new ByteArrayInputStream(bytes))

  // --------------------------------------------------------------- files

  def writeFile(
      path: Path,
      rows: Iterable[CRow],
      nOut: Int,
      nIn: Int,
      gzip: Boolean,
      names: Seq[String] = Seq.empty,
  ): Unit = {
    Files.createDirectories(path.getParent)
    val raw = new BufferedOutputStream(Files.newOutputStream(path))
    val o = if (gzip) new GZIPOutputStream(raw) else raw
    try write(o, rows, nOut, nIn, names)
    finally o.close()
  }

  def readFile(path: Path, gzip: Boolean): (Vector[CRow], Int, Int) = {
    val raw = Files.newInputStream(path)
    val in = if (gzip) new GZIPInputStream(raw) else raw
    try read(in)
    finally in.close()
  }
}
