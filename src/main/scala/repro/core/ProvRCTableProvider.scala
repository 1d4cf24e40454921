package repro.core

import java.nio.file.{Path, Paths}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.provrc._
import scala.jdk.CollectionConverters._

/** A DataSourceV2 `TableProvider` exposing a ProvRC-compressed lineage
  * table as a relational table with the *uncompressed* schema (key-side
  * axis columns first, then value-side), `format("provrc")`.
  *
  * Range/equality predicates on the key-side (absolutely indexed) columns
  * are pushed into the scan and evaluated in situ, per partition, in the
  * executors: each compressed row is range-joined against the pushed
  * bounds and only the intersected region is expanded — a filtered scan
  * never decompresses what it does not return. This is the paper's §IV-C
  * "predicates push down only on absolutely indexed columns" materialized
  * as a Spark extension point.
  */
object ProvRCTable {

  /** Write a table directory holding one self-describing file, `table.prc`,
    * whose Codec header carries the arities and column names.
    */
  def write(
      dir: String,
      rows: Vector[CRow],
      nOut: Int,
      nIn: Int,
      keyNames: Seq[String],
      valNames: Seq[String],
  ): Unit = {
    require(keyNames.size == nOut && valNames.size == nIn)
    Codec.writeFile(file(dir), rows, nOut, nIn, gzip = false, keyNames ++ valNames)
  }

  private[core] def file(dir: String): Path = Paths.get(dir, "table.prc")

  /** The stored table's header; a table must name its columns. */
  private[core] def header(dir: String): Codec.Header = {
    val h = Codec.readHeader(file(dir))
    require(h.names.size == h.nOut + h.nIn, s"${file(dir)} names no columns")
    h
  }

  private[core] def schemaOf(h: Codec.Header): StructType =
    StructType(h.names.map(n => StructField(n, LongType, nullable = false)))

  /** Bound sentinel for unconstrained axes — wide enough to cover any real
    * index, narrow enough that delta arithmetic cannot overflow.
    */
  private[core] val Unbounded: Interval = Interval(-(1L << 60), 1L << 60)
}

final class ProvRCDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "provrc"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    ProvRCTable.schemaOf(ProvRCTable.header(options.get("path")))

  override def getTable(
      schema: StructType,
      partitioning: Array[Transform],
      properties: java.util.Map[String, String],
  ): Table = new ProvRCTableImpl(properties.get("path"))
}

private final class ProvRCTableImpl(path: String) extends Table with SupportsRead {
  private val header = ProvRCTable.header(path)
  override def name(): String = s"provrc:$path"
  override def schema(): StructType = ProvRCTable.schemaOf(header)
  override def capabilities(): java.util.Set[TableCapability] =
    Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new ProvRCScanBuilder(path, header)
}

private final class ProvRCScanBuilder(path: String, header: Codec.Header)
    extends ScanBuilder with SupportsPushDownFilters {

  private var pushed: Array[Filter] = Array.empty
  private val keyIndex: Map[String, Int] =
    header.names.take(header.nOut).zipWithIndex.toMap

  /** The bounds a filter puts on one key axis, as `(axis, lo, hi)`; `None`
    * when the scan cannot answer it in situ and leaves it to Spark.
    */
  private def bounds(f: Filter): Option[(Int, Long, Long)] = {
    val U = ProvRCTable.Unbounded
    def on(attr: String, v: Any)(range: Long => (Long, Long)): Option[(Int, Long, Long)] = {
      val n: Option[Long] = v match {
        case l: java.lang.Long    => Some(l.longValue())
        case i: java.lang.Integer => Some(i.longValue())
        case _                    => None
      }
      for (axis <- keyIndex.get(attr); x <- n) yield {
        val (lo, hi) = range(x)
        (axis, lo, hi)
      }
    }
    f match {
      case EqualTo(a, v)            => on(a, v)(x => (x, x))
      case GreaterThan(a, v)        => on(a, v)(x => (x + 1, U.hi))
      case GreaterThanOrEqual(a, v) => on(a, v)(x => (x, U.hi))
      case LessThan(a, v)           => on(a, v)(x => (U.lo, x - 1))
      case LessThanOrEqual(a, v)    => on(a, v)(x => (U.lo, x))
      case _                        => None
    }
  }

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (in, residual) = filters.partition(bounds(_).isDefined)
    pushed = in
    residual // evaluated by Spark post-scan
  }

  override def pushedFilters(): Array[Filter] = pushed

  override def build(): Scan = {
    // Fold pushed predicates into one rectangle over the key axes.
    val lo = Array.fill(header.nOut)(ProvRCTable.Unbounded.lo)
    val hi = Array.fill(header.nOut)(ProvRCTable.Unbounded.hi)
    pushed.flatMap(bounds).foreach { case (i, l, h) =>
      lo(i) = math.max(lo(i), l); hi(i) = math.min(hi(i), h)
    }
    val empty = lo.indices.exists(i => lo(i) > hi(i))
    val rect =
      if (empty) Vector.fill(header.nOut)(ProvRCTable.Unbounded)
      else lo.indices.map(i => Interval(lo(i), hi(i))).toVector
    new ProvRCScan(path, header, rect, empty)
  }
}

private final case class ProvRCChunk(blob: Array[Byte]) extends InputPartition

private final class ProvRCScan(
    path: String,
    header: Codec.Header,
    rect: Vector[Interval],
    empty: Boolean,
) extends Scan with Batch with Serializable {

  override def readSchema(): StructType = ProvRCTable.schemaOf(header)
  override def toBatch: Batch = this

  override def planInputPartitions(): Array[InputPartition] = {
    if (empty) return Array.empty
    val (rows, nOut, nIn) = Codec.readFile(ProvRCTable.file(path), gzip = false)
    rows
      .grouped(4096)
      .map(g => ProvRCChunk(Codec.encode(g, nOut, nIn)): InputPartition)
      .toArray
  }

  override def createReaderFactory(): PartitionReaderFactory = {
    val r = rect
    (partition: InputPartition) => new ProvRCPartitionReader(
      partition.asInstanceOf[ProvRCChunk], r)
  }
}

/** Reads one chunk: in-situ range join against the pushed rectangle, then
  * expansion of only the intersected region.
  */
private final class ProvRCPartitionReader(
    chunk: ProvRCChunk,
    rect: Vector[Interval],
) extends PartitionReader[InternalRow] {

  private val iter: Iterator[Array[Long]] = {
    val (rows, _, _) = Codec.decode(chunk.blob)
    val filtered = rows.flatMap { r =>
      ThetaJoin.rangeJoin(r.out, rect).map(inter => CRow(inter.toVector, r.in))
    }
    ProvRC.decompress(filtered)
  }

  private var current: Array[Long] = _

  override def next(): Boolean = {
    if (iter.hasNext) { current = iter.next(); true } else false
  }

  override def get(): InternalRow =
    new GenericInternalRow(current.map(v => v: Any))

  override def close(): Unit = ()
}
