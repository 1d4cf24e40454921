package repro.bench

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.arrays._
import repro.core._
import repro.kaggle.WorkflowStudy
import repro.provrc._
import repro.store._
import repro.workflows.{Pipeline, Workflows}

/** Benchmark harnesses reproducing the paper's evaluation tables.
  * Each `run*` method prints the table it reproduces and returns the raw
  * numbers so tests can assert on the shape of the results.
  */
object Benchmarks {

  def timeMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e6)
  }

  private def fmtMb(bytes: Long): String = f"${IOUtil.mb(bytes)}%.4f"
  private def fmtPct(num: Long, den: Long): String =
    if (den == 0) "-" else f"${100.0 * num / den}%.4g"

  // =======================================================================
  // Table VII — lineage storage size across formats
  // =======================================================================

  /** One Table VII workload: its captured lineage relations (one per input
    * array), each in backward orientation with the key-side arity.
    */
  final case class Workload(name: String, relations: Seq[(DataFrame, Int)])

  def tableVIIWorkloads(spark: SparkSession, scale: Double = 1.0): Seq[Workload] = {
    def s(v: Int): Int = math.max(8, (v * scale).toInt)
    val n = s(1000)
    val mm = s(128)
    val img = s(256)
    val exp = s(416)
    val gb = s(200000)
    val joinParents = SynthTables.episodeParents(s(50000), avgEpisodes = 40.0, seed = 13)
    Seq(
      Workload("Negative", Seq(
        (LineageGen.elementwise(spark, Seq(n.toLong, n.toLong)), 2))),
      Workload("Addition", Seq(
        (LineageGen.elementwise(spark, Seq(n.toLong, n.toLong)), 2),
        (LineageGen.elementwise(spark, Seq(n.toLong, n.toLong)), 2))),
      Workload("Aggregate", Seq(
        (LineageGen.aggregate2d(spark, n.toLong, n.toLong, axis = 1), 1))),
      Workload("Repetition", Seq(
        (LineageGen.tile1d(spark, (n.toLong * n.toLong), 4), 1))),
      Workload("Matrix*Vector", Seq(
        (LineageGen.matvecLeft(spark, n.toLong, n.toLong), 1),
        (LineageGen.matvecRight(spark, n.toLong, n.toLong), 1))),
      Workload("Matrix*Matrix", Seq(
        (LineageGen.matmulLeft(spark, mm.toLong, mm.toLong, mm.toLong), 2),
        (LineageGen.matmulRight(spark, mm.toLong, mm.toLong, mm.toLong), 2))),
      Workload("Sort", Seq(
        (LineageGen.sortPerm(spark, n * n, seed = 7), 1))),
      Workload("ImgFilter", Seq(
        (LineageGen.conv2dSame(spark, img.toLong, img.toLong, 3, 3), 2))),
      Workload("Lime", Seq(
        (Explain.lime(spark, exp, exp, outCells = 5, grid = 8, segs = 12, seed = 21), 1))),
      Workload("DRISE", Seq(
        (Explain.drise(spark, exp, exp, outCells = 5, blobs = 150, maxRadius = 8, seed = 22), 1))),
      Workload("Group By", Seq(
        (LineageGen.groupBy(spark, SynthTables.genres(gb, card = 400, seed = 11), nCols = 3), 2))),
      Workload("Inner Join", Seq(
        (LineageGen.joinSide(spark, joinParents, nCols = 4, colOffset = 0), 2),
        (LineageGen.joinSide(spark, Array.range(0, joinParents.length), nCols = 2, colOffset = 4), 2))),
    )
  }

  final case class SizeRow(name: String, sizes: Map[String, Long]) {
    def raw: Long = sizes("Raw")
  }

  val FormatNames: Seq[String] =
    Seq("Raw", "Array", "Parquet", "Parquet-GZip", "Turbo-RC", "ProvRC", "ProvRC-GZip")

  def runTableVII(spark: SparkSession, scale: Double = 1.0): Seq[SizeRow] = {
    val base = Files.createTempDirectory("table7").toString
    val rows = tableVIIWorkloads(spark, scale).map { w =>
      val perFormat = scala.collection.mutable.Map.empty[String, Long].withDefaultValue(0L)
      w.relations.zipWithIndex.foreach { case ((df, nOut), i) =>
        val cached = df.cache()
        val dir = s"$base/${w.name.replaceAll("[^A-Za-z]", "")}-$i"
        Formats.RawCsv.write(cached, s"$dir/raw")
        perFormat("Raw") += IOUtil.sizeBytes(s"$dir/raw")
        Formats.ArrayBin.write(cached, s"$dir/bin")
        perFormat("Array") += IOUtil.sizeBytes(s"$dir/bin")
        Formats.Parquet.write(cached, s"$dir/pq", "snappy")
        perFormat("Parquet") += IOUtil.sizeBytes(s"$dir/pq")
        Formats.Parquet.write(cached, s"$dir/pqgz", "gzip")
        perFormat("Parquet-GZip") += IOUtil.sizeBytes(s"$dir/pqgz")
        TurboRC.write(cached, s"$dir/trc")
        perFormat("Turbo-RC") += IOUtil.sizeBytes(s"$dir/trc")
        val compressed = LineageCompressor.compress(cached, nOut)
        val cols = cached.columns.toSeq
        val nIn = cols.size - nOut
        ProvRCTable.write(s"$dir/prc", compressed, nOut, nIn, cols.take(nOut), cols.drop(nOut))
        perFormat("ProvRC") += IOUtil.sizeBytes(s"$dir/prc")
        Codec.writeFile(Paths.get(s"$dir/prcgz/t.prc.gz"), compressed, nOut, nIn, gzip = true, cols)
        perFormat("ProvRC-GZip") += IOUtil.sizeBytes(s"$dir/prcgz")
        cached.unpersist()
        IOUtil.deleteRecursively(dir)
      }
      SizeRow(w.name, perFormat.toMap)
    }
    IOUtil.deleteRecursively(base)

    println("\n=== Table VII: lineage storage size by format (MB; Rel% vs Raw) ===")
    println(f"${"Name"}%-14s" + FormatNames.map(f => f"$f%-22s").mkString)
    rows.foreach { r =>
      val cells = FormatNames.map { f =>
        val s = r.sizes(f)
        f"${fmtMb(s)} (${fmtPct(s, r.raw)}%%)"
      }
      println(f"${r.name}%-14s" + cells.map(c => f"$c%-22s").mkString)
    }
    rows
  }

  // =======================================================================
  // Query latency (Fig 8 as a table) — Table VIII workflows + ResNet
  // =======================================================================

  final case class LatencyRow(
      workflow: String, selectivity: Double, method: String,
      millis: Double, resultCells: Long)

  /** Rectangular query over the first array covering ~`sel` of its cells. */
  def queryRect(shape: Seq[Long], sel: Double): ThetaJoin.Rect = {
    val total = shape.product
    val want = math.max(1L, (total * sel).toLong)
    // take a prefix block on the first axis, full extent on the rest
    val rest = shape.drop(1).product
    val firstLen = math.max(1L, math.min(shape.head, (want + rest - 1) / rest))
    (Interval(0, firstLen - 1) +: shape.drop(1).map(d => Interval(0, d - 1))).toVector
  }

  final case class StoredPipeline(
      pipeline: Pipeline,
      log: DSLog,
      dirs: Map[String, Seq[String]], // format -> per-hop dir (forward orientation)
  )

  /** Ingest a pipeline into DSLog and write every hop's forward-oriented
    * uncompressed relation in each baseline format.
    */
  def ingestAndStore(spark: SparkSession, p: Pipeline, formats: Seq[String]): StoredPipeline = {
    val log = new DSLog(spark)
    p.arrays.foreach { case (n, s) => log.defineArray(n, s) }
    val base = Files.createTempDirectory(s"wf-${p.name.takeWhile(_ != ' ')}").toString
    val dirs = scala.collection.mutable.Map.empty[String, Vector[String]].withDefaultValue(Vector.empty)
    p.steps.zipWithIndex.foreach { case (s, i) =>
      log.registerLineage(s.from, s.to, s.relation)
      val nTo = log.array(s.to).arity
      val cols = s.relation.columns
      val fwd = s.relation
        .select((cols.drop(nTo) ++ cols.take(nTo)).map(org.apache.spark.sql.functions.col).toSeq: _*)
        .cache()
      formats.foreach { f =>
        val dir = s"$base/hop$i/$f"
        f match {
          case "Raw"          => Formats.RawCsv.write(fwd, dir)
          case "Array"        => Formats.ArrayBin.write(fwd, dir)
          case "Parquet"      => Formats.Parquet.write(fwd, dir, "snappy")
          case "Parquet-GZip" => Formats.Parquet.write(fwd, dir, "gzip")
          case "Turbo-RC"     => TurboRC.write(fwd, dir)
          case other          => throw new IllegalArgumentException(other)
        }
        dirs(f) = dirs(f) :+ dir
      }
      fwd.unpersist()
    }
    StoredPipeline(p, log, dirs.toMap)
  }

  /** Run one query with every method; returns latency rows. */
  def queryAllMethods(
      spark: SparkSession,
      sp: StoredPipeline,
      sel: Double,
      includeNoMerge: Boolean = false,
  ): Seq[LatencyRow] = {
    val p = sp.pipeline
    val rect = queryRect(p.firstShape, sel)
    val nFromAxes = p.arrays.sliding(2).map { case Seq((_, s), _) => s.size }.toSeq

    val out = Vector.newBuilder[LatencyRow]
    def record(method: String, millis: Double, cells: Long): Unit = {
      out += LatencyRow(p.name.takeWhile(_ != ' '), sel, method, millis, cells)
    }

    val (dslogRes, dslogMs) = timeMs(sp.log.provQuery(p.path, Seq(rect)))
    record("DSLog", dslogMs, ThetaJoin.volume(dslogRes))
    if (includeNoMerge) {
      val (res, ms) = timeMs(sp.log.provQuery(p.path, Seq(rect), merge = false))
      record("DSLog-NoMerge", ms, ThetaJoin.volume(res))
    }

    def hops(reader: String => DataFrame, format: String): Seq[(DataFrame, Int)] =
      sp.dirs(format).zip(nFromAxes).map { case (dir, nKey) => (reader(dir), nKey) }

    sp.dirs.keys.toSeq.sorted.foreach {
      case f @ ("Parquet" | "Parquet-GZip") =>
        val (n, ms) = timeMs {
          QueryProcessor.joinChain(hops(d => Formats.Parquet.read(spark, d), f), Seq(rect)).count()
        }
        record(f, ms, n)
      case f @ "Raw" =>
        val (n, ms) = timeMs {
          QueryProcessor.joinChain(hops(d => Formats.RawCsv.read(spark, d), f), Seq(rect)).count()
        }
        record(f, ms, n)
      case f @ "Turbo-RC" =>
        val (n, ms) = timeMs {
          QueryProcessor.joinChain(hops(d => TurboRC.read(spark, d), f), Seq(rect)).count()
        }
        record(f, ms, n)
      case f @ "Array" =>
        val (n, ms) = timeMs {
          val hs = sp.dirs(f).zip(nFromAxes).map { case (dir, nKey) =>
            (Formats.ArrayBin.readColumns(dir), nKey)
          }
          QueryProcessor.arrayScanChain(hs, Seq(rect)).size.toLong
        }
        record(f, ms, n)
      case _ => ()
    }
    out.result()
  }

  def printLatencyRows(title: String, rows: Seq[LatencyRow]): Unit = {
    println(s"\n=== $title (latency ms; result cells) ===")
    println(f"${"workflow"}%-12s${"sel"}%-9s${"method"}%-15s${"ms"}%12s${"cells"}%12s")
    rows.foreach { r =>
      println(f"${r.workflow}%-12s${r.selectivity}%-9s${r.method}%-15s${r.millis}%12.1f${r.resultCells}%12d")
    }
  }

  // =======================================================================
  // Table IX — coverage of compression and reuse over the op catalog
  // =======================================================================

  final case class CoverageRow(
      category: String, total: Int,
      provrc: Int, dimSig: Int, genSig: Int, errors: Int)

  def runTableIX(runs: Int = 20, seed: Long = 5): Seq[CoverageRow] = {
    val rm = new ReuseManager
    val compressedOps = scala.collection.mutable.Set.empty[String]

    Ops.all.foreach { op =>
      var run = 0
      while (run < runs) {
        // first 16 runs cycle 4 shape variants (confirming dim/gen sigs);
        // the tail explores larger variants (where `cross` switches pattern)
        val k = if (run < 16) run % 4 else 15 + (run - 16)
        val ins = op.makeInputs(k, seed + run * 31 + op.name.hashCode)
        val rels = op.lineage(ins)
        val tables = rels.map(r => ProvRC.compress(r.rows.iterator, r.nOut, r.nIn))
        if (run == 0) {
          val rawBytes = rels.map(_.rawCsvBytes).sum
          val compBytes = rels.lazyZip(tables).map((r, t) => Codec.encode(t, r.nOut, r.nIn).length.toLong).sum
          if (compBytes * 2 < rawBytes) compressedOps += op.name
        }
        rm.register(op.name, op.argsKey, ins.map(_.shape), tables)
        run += 1
      }
    }

    def row(cat: String, ops: Seq[ArrayOp]): CoverageRow = CoverageRow(
      cat,
      ops.size,
      ops.count(o => compressedOps(o.name)),
      ops.count(o => rm.dimCovered(o.name)),
      ops.count(o => rm.genCovered(o.name)),
      ops.map(o => rm.errorsFor(o.name)).count(_ > 0),
    )
    val rows = Seq(
      row("element", Ops.elementOps),
      row("complex", Ops.complexOps),
      row("total", Ops.all),
    )
    val errOps = Ops.all.filter(o => rm.errorsFor(o.name) > 0).map(_.name)
    if (errOps.nonEmpty) println(s"reuse mispredictions: ${errOps.mkString(", ")}")
    println("\n=== Table IX: numpy API operations covered by compression and reuse ===")
    println(f"${"Op."}%-9s${"Tot."}%-6s${"ProvRC"}%-13s${"dim_sig"}%-13s${"gen_sig"}%-13s${"Error"}%-6s")
    rows.foreach { r =>
      def pct(v: Int) = f"$v (${100.0 * v / r.total}%.1f%%)"
      println(f"${r.category}%-9s${r.total}%-6s${pct(r.provrc)}%-13s${pct(r.dimSig)}%-13s${pct(r.genSig)}%-13s${r.errors}%-6s")
    }
    rows
  }

  // =======================================================================
  // Table X — compressible operations in data-science workflows
  // =======================================================================

  def runTableX(perDataset: Int = 10, seed: Long = 99): Seq[WorkflowStudy.StudyRow] = {
    val rows = WorkflowStudy.study(perDataset, seed)
    println("\n=== Table X: compressible operations and longest chains (synthetic notebook corpus) ===")
    println(f"${"Dataset"}%-9s${"Total Op."}%-16s${"Compress Abs"}%-16s${"Compress %%"}%-16s${"Longest Chain"}%-16s")
    rows.foreach { r =>
      println(f"${r.dataset}%-9s${f"${r.meanOps}%.1f +- ${r.sdOps}%.1f"}%-16s" +
        f"${f"${r.meanCompress}%.1f +- ${r.sdCompress}%.1f"}%-16s" +
        f"${f"${r.meanPct}%.1f +- ${r.sdPct}%.1f"}%-16s" +
        f"${f"${r.meanChain}%.1f +- ${r.sdChain}%.1f"}%-16s")
    }
    rows
  }
}
