package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.arrays.{LocalRel, NDArray, Ops}
import repro.core._
import repro.provrc._
import repro.store.IOUtil
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** What one run shares: the Spark session, the seed, the scale of the
  * inputs, a scratch directory, the span recorder and the output checks.
  */
final class Env(
    startSpark: () => SparkSession,
    val seed: Long,
    val scale: Double,
    val work: Path,
    val tr: Tracer,
    val checks: Checks,
    val sparkCounters: SparkCounters,
) {
  private var started = false
  /** The Spark session, started on first use. */
  lazy val spark: SparkSession = { started = true; startSpark() }
  def sparkStarted: Boolean = started
  /** Facts about the run that are not metrics, printed with the result. */
  val details = mutable.LinkedHashMap.empty[String, Any]
  def sz(v: Int): Int = math.max(4, (v * scale).round.toInt)
  def rng(salt: Long): Random = new Random(seed * 1000003L + salt)
}

/** One captured lineage relation `from -> to`, backward orientation
  * (the `to` array's axis columns first). `kind` names the relation kind
  * for per-kind metrics.
  */
final case class Rel(kind: String, from: String, to: String, fromShape: Seq[Long],
    toShape: Seq[Long], df: DataFrame) {
  def nFrom: Int = fromShape.size
  def nTo: Int = toShape.size
  def cols: Seq[String] = df.columns.toSeq
  def fwdDf: DataFrame = df.select((cols.drop(nTo) ++ cols.take(nTo)).map(col): _*)
}

object Rel {
  /** A relation between two arrays whose shapes are the bounding boxes of
    * its index columns.
    */
  def bounded(kind: String, from: String, to: String, nTo: Int, df: DataFrame): Rel = {
    val maxes = df.columns.map(c => org.apache.spark.sql.functions.max(col(c)))
    val row = df.agg(maxes.head, maxes.tail.toSeq: _*).head()
    val shape = (0 until row.size).map(i => row.getLong(i) + 1)
    Rel(kind, from, to, shape.drop(nTo), shape.take(nTo), df)
  }

  def collect(df: DataFrame): Array[Array[Long]] =
    df.collect().map(r => Array.tabulate(r.size)(r.getLong))
}

/** A relation after registration: its tables, where they were written,
  * and its uncompressed rows for the reference answers.
  */
final class Registered(val rel: Rel, val tables: LineageTables, val dirs: (String, String),
    known: Array[Array[Long]] = null) {
  lazy val rows: Array[Array[Long]] = if (known != null) known else Rel.collect(rel.df)
  lazy val fwdHop: RefHop = new RefHop(rows, rel.nTo until rel.nTo + rel.nFrom, 0 until rel.nTo,
    rel.fromShape, rel.toShape)
  lazy val bwdHop: RefHop = new RefHop(rows, 0 until rel.nTo, rel.nTo until rel.nTo + rel.nFrom,
    rel.toShape, rel.fromShape)
  def rawBytes: Long = 2L * 8 * (rel.nTo + rel.nFrom) * rows.length
}

/** A `provQuery` input with the reference hops its answer is checked on. */
final case class QSpec(label: String, log: DSLog, path: Seq[String],
    rects: Seq[ThetaJoin.Rect], hops: () => Seq[RefHop])

/** A filtered `provrc` scan: `lo <= key <= hi` on the table's first key column. */
final case class ScanSpec(label: String, dir: String, keyCol: String, lo: Long, hi: Long,
    expected: () => Long)

/** Closed-loop latency samples of one kind of operation, with the label
  * of the input each came from.
  */
final class Samples {
  val ms = ArrayBuffer.empty[Double]
  val labels = ArrayBuffer.empty[String]
  var wallMs = 0.0
  def perSecond: Double = ms.size / (wallMs / 1000)
  def add(label: String, t: Double): Unit = { ms += t; labels += label }

  /** Median latency per input label. */
  def byLabel: Map[String, Double] =
    labels.zip(ms).groupBy(_._1).map { case (l, xs) => l -> Stats.median(xs.map(_._2).toSeq) }
}

/** The calls into each layer, made from the benchmark's own code. Every
  * operation runs the program's public functions; with the tracer on, the
  * same calls are wrapped in spans, and a query runs its path one
  * `QueryProcessor.insitu` hop at a time so each hop gets its own span.
  * What happens inside a program function is measured by the replays
  * below, which call the layer's public functions directly.
  */
object Phases {
  import ThetaJoin.Rect

  // ----------------------------------------------------------- ingest

  def register(env: Env, log: DSLog, r: Rel): LineageTables = {
    log.defineArray(r.from, r.fromShape)
    log.defineArray(r.to, r.toShape)
    env.tr.span("DSLog.registerLineage")(log.registerLineage(r.from, r.to, r.df))
  }

  /** Write both orientations of a registered relation as `provrc` tables. */
  def write(env: Env, base: String, r: Rel, t: LineageTables): ((String, String), Long) = {
    val (bDir, fDir) = (s"$base/bwd", s"$base/fwd")
    val cols = r.cols
    env.tr.span("ProvRCTable.write") {
      ProvRCTable.write(bDir, t.backward, r.nTo, r.nFrom, cols.take(r.nTo), cols.drop(r.nTo))
      ProvRCTable.write(fDir, t.forward, r.nFrom, r.nTo, cols.drop(r.nTo), cols.take(r.nTo))
    }
    val bytes = IOUtil.sizeBytes(bDir) + IOUtil.sizeBytes(fDir)
    env.tr.count("ProvRCTable.write.bytes", bytes.toDouble)
    ((bDir, fDir), bytes)
  }

  /** Register and write every relation into one log; also returns the
    * time that took (ms) and the bytes written.
    */
  def registerAll(env: Env, log: DSLog, rels: Seq[Rel], base: String): (Seq[Registered], Double, Long) = {
    val each = mutable.LinkedHashMap.empty[String, Double]
    var bytes = 0L
    val out = rels.zipWithIndex.map { case (r, i) =>
      val t0 = System.nanoTime()
      val t = register(env, log, r)
      val (dirs, b) = write(env, s"$base/$i", r, t)
      each(s"${r.from}->${r.to}") = Stats.nanos(t0)
      bytes += b
      new Registered(r, t, dirs)
    }
    env.details("register_ms") = each
    (out, each.values.sum, bytes)
  }

  /** `LineageCompressor.compress` of both orientations of each relation,
    * timed per call and relation kind.
    */
  def replayCompressor(env: Env, rels: Seq[Rel]): Unit = rels.foreach { r =>
    val tr = env.tr
    Seq((r.df, r.nTo), (r.fwdDf, r.nFrom)).foreach { case (df, nKey) =>
      val t0 = System.nanoTime()
      val out = tr.span("LineageCompressor.compress")(LineageCompressor.compress(df, nKey))
      tr.count(s"LineageCompressor.compress.ms.${r.kind}", Stats.nanos(t0))
      tr.count(s"LineageCompressor.compress.calls.${r.kind}", 1)
      tr.count(s"LineageCompressor.compress.rows_out.${r.kind}", out.size)
    }
  }

  // ------------------------------------------------------------ query

  def query(env: Env, q: QSpec): Vector[Rect] = {
    val tr = env.tr
    if (!tr.on) q.log.provQuery(q.path, q.rects)
    else tr.span("DSLog.provQuery") {
      q.path.sliding(2).foldLeft(q.rects.toVector) { case (acc, Seq(x, y)) =>
        val rows = q.log.hopTable(x, y)
        val path = if (rows.size > QueryProcessor.SparkHopThreshold) "spark" else "driver"
        val t0 = System.nanoTime()
        val out = tr.span("QueryProcessor.insitu")(QueryProcessor.insitu(env.spark, Seq(rows), acc))
        tr.count(s"QueryProcessor.insitu.hop_ms.$path", Stats.nanos(t0))
        tr.count(s"QueryProcessor.insitu.hops.$path", 1)
        out
      }
    }
  }

  /** The query rectangles as a sequence that counts how often the join
    * reads one: a nested-loop join reads each once per table row, so the
    * count is the (row, rectangle) pairs it probed.
    */
  private final class CountedRects(rects: Vector[Rect]) extends scala.collection.immutable.IndexedSeq[Rect] {
    var reads = 0L
    def length: Int = rects.length
    def apply(i: Int): Rect = { reads += 1; rects(i) }
  }

  /** Every hop of every query, replayed on the driver through the public
    * `ThetaJoin.joinRaw` and `ThetaJoin.mergeRects`, plus `Codec.encode`
    * and `Codec.decode` of each table the Spark hop re-encodes. Hops of
    * Spark-hop size also add their join + merge time to
    * `replay.spark_size.join_merge_ms`.
    */
  def replayHops(env: Env, specs: Seq[QSpec]): Unit = {
    val tr = env.tr
    val encoded = mutable.Set.empty[(DSLog, String, String)]
    specs.foreach { q =>
      q.path.sliding(2).foldLeft(q.rects.toVector) { case (acc, Seq(x, y)) =>
        val rows = q.log.hopTable(x, y)
        val t0 = System.nanoTime()
        val raw = tr.span("ThetaJoin.joinRaw")(ThetaJoin.joinRaw(rows, acc))
        val joinMs = Stats.nanos(t0)
        val counted = new CountedRects(acc)
        ThetaJoin.joinRaw(rows, counted)
        tr.count("ThetaJoin.joinRaw.ms", joinMs)
        tr.count("ThetaJoin.joinRaw.calls", 1)
        tr.count("ThetaJoin.joinRaw.pairs_probed", counted.reads.toDouble)
        tr.count("ThetaJoin.joinRaw.rects_out", raw.size)
        val m0 = System.nanoTime()
        val out = tr.span("ThetaJoin.mergeRects")(ThetaJoin.mergeRects(raw))
        val mergeMs = Stats.nanos(m0)
        tr.count("ThetaJoin.mergeRects.ms", mergeMs)
        tr.count("ThetaJoin.mergeRects.calls", 1)
        tr.count("ThetaJoin.mergeRects.rects_in", raw.size)
        tr.count("ThetaJoin.mergeRects.rects_out", out.size)
        if (rows.size > QueryProcessor.SparkHopThreshold) {
          tr.count("replay.spark_size.join_merge_ms", joinMs + mergeMs)
          tr.count("replay.spark_size.hops", 1)
          if (encoded.add((q.log, x, y))) replayCodec(env, rows)
        }
        out
      }
    }
  }

  /** `Codec.encode` and `Codec.decode` of one compressed table. */
  def replayCodec(env: Env, rows: Vector[CRow]): Unit = {
    val tr = env.tr
    val e0 = System.nanoTime()
    val blob = tr.span("Codec.encode")(Codec.encode(rows, rows.head.nOut, rows.head.nIn))
    tr.count("Codec.encode.ms", Stats.nanos(e0))
    tr.count("Codec.encode.calls", 1)
    tr.count("Codec.bytes", blob.length)
    val d0 = System.nanoTime()
    tr.span("Codec.decode")(Codec.decode(blob))
    tr.count("Codec.decode.ms", Stats.nanos(d0))
    tr.count("Codec.decode.calls", 1)
  }

  /** Answers seen per query spec, for checking after the timed loop. */
  final class Answers(n: Int) {
    private val seen = Array.fill(n)(mutable.LinkedHashSet.empty[Vector[Rect]])
    def add(i: Int, a: Vector[Rect]): Unit = if (seen(i).size < 4) seen(i) += a

    /** Every answer's cell set must equal the reference. */
    def check(env: Env, specs: IndexedSeq[QSpec], counts: Array[Long]): Unit =
      specs.indices.foreach { i =>
        if (counts(i) > 0) {
          val hops = specs(i).hops()
          val ref = RefHop.answer(hops, specs(i).rects)
          val shape = hops.last.valShape
          val ok = seen(i).forall(a => java.util.Arrays.equals(RefHop.cells(a, shape), ref))
          (0L until counts(i)).foreach(_ =>
            env.checks.record(ok, s"query ${specs(i).label}: answer differs from reference"))
        }
      }
  }

  def scan(env: Env, s: ScanSpec): Long = {
    val sc = env.spark.sparkContext
    sc.setLocalProperty("perfbench.kind", "scan")
    try env.tr.span("ProvRCTableProvider.scan") {
      env.spark.read.format("provrc").load(s.dir)
        .filter(col(s.keyCol) >= s.lo && col(s.keyCol) <= s.hi)
        .count()
    } finally sc.setLocalProperty("perfbench.kind", null)
  }

  /** Closed loop over queries (`Left`) and scans (`Right`) in the order of
    * `cycle`, run in whole cycles until at least `minCycles` and `seconds`
    * have passed, so every run sees the same mix. Answers are checked
    * afterwards.
    */
  def readLoop(env: Env, specs: IndexedSeq[QSpec], scans: IndexedSeq[ScanSpec],
      cycle: IndexedSeq[Either[Int, Int]], seconds: Double, minCycles: Int = 1): (Samples, Samples) = {
    val qs = new Samples
    val ss = new Samples
    val answers = new Answers(specs.size)
    val counts = new Array[Long](specs.size)
    val t0 = System.nanoTime()
    var i = 0L
    while (i < minCycles.toLong * cycle.size || i % cycle.size != 0 || Stats.nanos(t0) < seconds * 1000) {
      cycle((i % cycle.size).toInt) match {
        case Left(k) =>
          val s0 = System.nanoTime()
          val a =
            try Some(env.tr.op(i)(query(env, specs(k))))
            catch { case e: Exception => env.checks.fail(s"query ${specs(k).label}: $e"); None }
          qs.add(specs(k).label, Stats.nanos(s0))
          a.foreach { x => answers.add(k, x); counts(k) += 1 }
        case Right(k) =>
          val s0 = System.nanoTime()
          val n =
            try Some(env.tr.op(i)(scan(env, scans(k))))
            catch { case e: Exception => env.checks.fail(s"scan ${scans(k).dir}: $e"); None }
          ss.add(scans(k).label, Stats.nanos(s0))
          n.foreach { c =>
            env.tr.count("provrc_scan.rows_returned", c.toDouble)
            env.checks.record(c == scans(k).expected(), s"scan ${scans(k).dir}: count $c")
          }
      }
      i += 1
    }
    val wall = Stats.nanos(t0)
    val qShare = qs.ms.sum / math.max(1e-9, qs.ms.sum + ss.ms.sum)
    qs.wallMs = wall * qShare
    ss.wallMs = wall * (1 - qShare)
    answers.check(env, specs, counts)
    (qs, ss)
  }

  /** Scans over the stored tables of registered relations: a key range of
    * about `share` of the first key axis placed from the seed, backward and
    * forward.
    */
  def scanSpecs(env: Env, regs: Seq[Registered], share: Double, perTable: Int,
      salt: Long): IndexedSeq[ScanSpec] = {
    val rng = env.rng(salt)
    regs.flatMap { g =>
      val r = g.rel
      val cols = r.cols
      Seq(("bwd", g.dirs._1, cols.head, r.toShape.head, 0), ("fwd", g.dirs._2, cols(r.nTo), r.fromShape.head, r.nTo))
        .flatMap { case (dir, path, keyCol, extent, colIdx) =>
          Seq.fill(perTable) {
            val len = math.max(1L, (extent * share).toLong)
            val lo = rng.nextLong(math.max(1L, extent - len + 1))
            val hi = lo + len - 1
            ScanSpec(s"${r.kind}.$dir", path, keyCol, lo, hi,
              () => g.rows.count(row => row(colIdx) >= lo && row(colIdx) <= hi).toLong)
          }
        }
    }.toIndexedSeq
  }

  // ------------------------------------------------------ op catalog

  /** Inputs of one Table IX pass: every op over its shape variants. */
  def catalogInputs(seed: Long, runs: Int): IndexedSeq[IndexedSeq[Seq[NDArray]]] =
    Ops.all.toIndexedSeq.map { op =>
      (0 until runs).map { run =>
        // As in Table IX: the first 16 runs cycle 4 shape variants, the tail
        // explores larger ones (where `cross` switches pattern).
        val k = if (run < 16) run % 4 else 15 + (run - 16)
        op.makeInputs(k, seed + run * 31 + op.name.hashCode)
      }
    }

  final case class Coverage(provrc: Int, dimSig: Int, genSig: Int, errorOps: Seq[String])

  /** The seed of the program's own Table IX run (`Benchmarks.runTableIX`). */
  val TableIXSeed = 5L

  /** Table IX on its seed: ProvRC, dim_sig and gen_sig coverage and the
    * ops with a reuse misprediction.
    */
  val TableIX = Coverage(124, 126, 104, Seq("cross"))

  /** One untimed pass on the Table IX seed, checked against Table IX. */
  def tableIXPass(env: Env): Unit = {
    val c = catalogPass(env, catalogInputs(TableIXSeed, CatalogRuns), checkTables = false).coverage
    env.checks.record(c == TableIX, s"op catalog on the Table IX seed: $c != $TableIX")
  }

  /** The check of a pass on another seed. `cross` mispredicts on every
    * seed. A value-dependent op (a selection such as `percentile`) can be
    * confirmed by two inputs that happen to select the same cell and then
    * mispredict, which the m = 1 prediction allows; no other op may.
    */
  def checkCoverage(env: Env, c: Coverage): Unit = {
    val allowed = Ops.all.filter(_.valueDependent).map(_.name).toSet + "cross"
    env.checks.record(c.errorOps.contains("cross") && c.errorOps.forall(allowed),
      s"op catalog mispredictions ${c.errorOps.mkString(",")}")
  }

  /** Calls per op in a pass, over its shape variants (Table IX). */
  val CatalogRuns = 20

  final class PassResult(val calls: Int, val ms: Double, val coverage: Coverage) {
    def callsPerSecond: Double = calls / (ms / 1000)
  }

  /** The catalog's call rate over several passes: all their calls over all
    * their time. A pass's own rate moves by up to a half from one pass to
    * the next in the same JVM, as the JIT keeps recompiling shared code
    * (the sort merges, `Vector.map`) for a dozen passes; of the estimators
    * tried on ten-seed sets (median pass, best pass, each op's best time)
    * the rate over all passes spread least.
    */
  def catalogRate(passes: Seq[PassResult]): Double =
    passes.map(_.calls).sum / (passes.map(_.ms).sum / 1000)

  /** One pass of the Table IX call loop: capture -> compress -> register.
    * With `checkTables`, every captured table is checked to be lossless
    * after the pass, outside its time.
    */
  def catalogPass(env: Env, inputs: IndexedSeq[IndexedSeq[Seq[NDArray]]], checkTables: Boolean): PassResult = {
    val tr = env.tr
    val rm = new ReuseManager
    val compressedOps = mutable.Set.empty[String]
    val kept = ArrayBuffer.empty[(Seq[LocalRel], Seq[Vector[CRow]])]
    val p0 = System.nanoTime()
    var calls = 0
    Ops.all.zip(inputs).foreach { case (op, runs) =>
      runs.indices.foreach { run =>
        val ins = runs(run)
        tr.op(calls) {
          val t0 = System.nanoTime()
          val rels = tr.span("Ops.lineage")(op.lineage(ins))
          tr.count("Ops.lineage.ms", Stats.nanos(t0))
          val tables = rels.map { r =>
            val c0 = System.nanoTime()
            val t = tr.span("ProvRC.compress")(ProvRC.compress(r.rows.iterator, r.nOut, r.nIn))
            tr.count("ProvRC.compress.calls_ms", Stats.nanos(c0))
            tr.count("ProvRC.compress.calls", 1)
            t
          }
          if (run == 0) {
            val rawCsv = rels.map(_.rawCsvBytes).sum
            val bytes = rels.lazyZip(tables).map((r, t) => Codec.encode(t, r.nOut, r.nIn).length.toLong).sum
            if (bytes * 2 < rawCsv) compressedOps += op.name
          }
          val r0 = System.nanoTime()
          val (dimHit, genHit) = tr.span("ReuseManager.register")(
            rm.register(op.name, op.argsKey, ins.map(_.shape), tables))
          tr.count("ReuseManager.register.ms", Stats.nanos(r0))
          tr.count("ReuseManager.dim_hits", if (dimHit) 1 else 0)
          tr.count("ReuseManager.gen_hits", if (genHit) 1 else 0)
          tr.count("ReuseManager.hits", if (dimHit || genHit) 1 else 0)
          if (checkTables) kept += ((rels, tables))
        }
        calls += 1
      }
    }
    tr.count("ReuseManager.mispredictions", rm.errors)
    tr.count("ReuseManager.passes", 1)
    val cov = Coverage(
      compressedOps.size,
      Ops.all.count(o => rm.dimCovered(o.name)),
      Ops.all.count(o => rm.genCovered(o.name)),
      Ops.all.filter(o => rm.errorsFor(o.name) > 0).map(_.name),
    )
    val ms = Stats.nanos(p0)
    checkLossless(env, kept.toSeq)
    new PassResult(calls, ms, cov)
  }

  /** Whole catalog passes until `seconds` have passed and at least
    * `minPasses` have run; the first checks its captured tables.
    */
  def catalogLoop(env: Env, inputs: IndexedSeq[IndexedSeq[Seq[NDArray]]], seconds: Double,
      minPasses: Int): Seq[PassResult] = {
    val t0 = System.nanoTime()
    val passes = ArrayBuffer.empty[PassResult]
    while (Stats.nanos(t0) < seconds * 1000 || passes.size < minPasses)
      passes += catalogPass(env, inputs, checkTables = passes.isEmpty)
    passes.toSeq
  }

  /** Every pass's mispredictions are allowed and its coverage is the first
    * pass's.
    */
  def checkPasses(env: Env, passes: Seq[PassResult]): Unit = {
    passes.foreach { p =>
      checkCoverage(env, p.coverage)
      env.checks.record(p.coverage == passes.head.coverage,
        s"op catalog coverage ${p.coverage} != ${passes.head.coverage}")
    }
  }

  /** Every captured table must decompress to its relation's distinct rows. */
  def checkLossless(env: Env, captured: Seq[(Seq[LocalRel], Seq[Vector[CRow]])]): Unit =
    captured.foreach { case (rels, tables) =>
      val ok = rels.lazyZip(tables).forall { (r, t) =>
        ProvRC.decompress(t).map(_.toVector).toSet == r.rows.map(_.toVector).toSet
      }
      env.checks.record(ok, "op catalog table is not lossless")
    }

  /** Sorted copy of rows in lexicographic order, for set comparison. */
  def sortRows(rows: Iterator[Array[Long]]): Array[Array[Long]] = {
    val a = rows.toArray
    java.util.Arrays.sort(a, (x: Array[Long], y: Array[Long]) => java.util.Arrays.compare(x, y))
    a
  }

  def sameRows(a: Array[Array[Long]], b: Array[Array[Long]]): Boolean =
    a.length == b.length && a.indices.forall(i => java.util.Arrays.equals(a(i), b(i)))

  /** A stored table must decompress to its relation's distinct rows. */
  def checkStored(env: Env, dir: String, expected: Array[Array[Long]]): Unit = {
    val ok =
      try {
        val (rows, _, _) = Codec.readFile(java.nio.file.Paths.get(dir, "table.prc"), gzip = false)
        sameRows(sortRows(ProvRC.decompress(rows)), expected)
      } catch { case _: Exception => false }
    env.checks.record(ok, s"stored table $dir does not decompress to its relation")
  }

  def permute(rows: Array[Array[Long]], nTo: Int): Array[Array[Long]] =
    rows.map(r => r.drop(nTo) ++ r.take(nTo))
}
