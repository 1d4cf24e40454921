package repro.perfbench

import repro.arrays._
import repro.core._
import repro.provrc._
import repro.workflows.{Pipeline, Workflows}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** The main loop's work: `ops` operations in `ms` of wall time. */
final case class Loop(ops: Long, ms: Double)

/** One benchmark workload. `setup` builds its inputs from the seed and
  * registers what the loop needs; it is repeated to time set-up. `loop`
  * is the closed, single-client measured loop. `secondary` measures the
  * end-to-end metrics the loop itself does not produce (see README).
  * Output checks run in `check`, outside every timed region.
  */
trait Workload {
  def setup(): Unit
  def loop(seconds: Double): Loop
  def endToEnd: Map[String, Metric]
  def secondary(): Map[String, Metric]
  def check(): Unit
  def replay(): Unit = ()
  /** Untimed operations before the measured loop, until the JIT has settled. */
  def warmup(): Unit = loop(1.0)
  /** Row counts and content hashes of the generated inputs. */
  def fingerprint: Map[String, String]
}

object Workload {
  def apply(name: String, env: Env): Workload = name match {
    case "ingest"      => new Ingest(env)
    case "query_wide"  => new QueryWide(env)
    case other         => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def queryMetrics(env: Env, qs: Samples): Map[String, Metric] = {
    val (tail, pct, n) = Stats.tail(qs.ms.toSeq)
    env.details("query_ms_tail") = Map("percentile" -> pct, "samples" -> n)
    Map(
      "query_ms_p50" -> Metric(Stats.median(qs.ms.toSeq), "ms"),
      "query_ms_tail" -> Metric(tail, "ms"),
      "queries_per_s" -> Metric(qs.perSecond, "1/s"),
    )
  }

  /** Content hash of a set of rows (order-independent). */
  def hashRows(rows: Array[Array[Long]]): String = {
    var h = 0L
    rows.foreach(r => h += java.util.Arrays.hashCode(r).toLong * 0x9E3779B97F4A7C15L)
    f"${rows.length}%d:$h%016x"
  }

  def hashSpecs(specs: Seq[QSpec]): String =
    f"${specs.size}%d:${specs.map(s => (s.path, s.rects)).hashCode}%08x"

  /** `op_calls_per_s`, measured the same way on every workload, first in
    * the JVM and before Spark starts: the whole Table IX call loop (capture
    * -> ProvRC.compress -> ReuseManager.register over every op in
    * `Ops.all`), one checked pass on the Table IX seed to warm up, then
    * whole passes on this run's inputs until `seconds` have passed and at
    * least `CatalogPasses` have run, rated as `Phases.catalogRate`. In a
    * JVM that has run Spark the same passes ran slower and their rate
    * differed by a third from one JVM to the next, most likely because the
    * JIT had Spark's code queued and had profiled shared library code under
    * Spark.
    */
  def catalogProbe(env: Env, seconds: Double): Map[String, Metric] = {
    val inputs = Phases.catalogInputs(env.seed, Phases.CatalogRuns)
    Phases.tableIXPass(env)
    val passes = Phases.catalogLoop(env, inputs, seconds, CatalogPasses)
    Phases.checkPasses(env, passes)
    env.details("catalog_pass_calls_per_s") = passes.map(_.callsPerSecond)
    Map("op_calls_per_s" -> Metric(Phases.catalogRate(passes), "1/s"))
  }

  val CatalogPasses = 8

  /** The read path over one table large enough for the Spark hop, for the
    * workloads whose own loop does not query: points and boxes both ways
    * and four filtered scans per cycle, one warm cycle and three measured.
    */
  def readProbe(env: Env, log: DSLog, g: Registered): Map[String, Metric] = {
    val rng = env.rng(501)
    val r = g.rel
    def q(label: String, fwd: Boolean, rects: Seq[ThetaJoin.Rect]): QSpec =
      if (fwd) QSpec(s"probe.fwd.$label", log, Seq(r.from, r.to), rects, () => Seq(g.fwdHop))
      else QSpec(s"probe.bwd.$label", log, Seq(r.to, r.from), rects, () => Seq(g.bwdHop))
    val specs = IndexedSeq(
      q("points1a", true, Queries.points(r.fromShape, 1, rng)),
      q("points1b", true, Queries.points(r.fromShape, 1, rng)),
      q("points10", true, Queries.points(r.fromShape, 10, rng)),
      q("box", true, Seq(Queries.box(r.fromShape, 1e-3, rng))),
      q("points1a", false, Queries.points(r.toShape, 1, rng)),
      q("points1b", false, Queries.points(r.toShape, 1, rng)),
      q("points10", false, Queries.points(r.toShape, 10, rng)),
      q("box", false, Seq(Queries.box(r.toShape, 1e-3, rng))),
    )
    val scans = Phases.scanSpecs(env, Seq(g), share = 0.05, perTable = 2, salt = 502)
    val cycle = specs.indices.map(Left(_)) ++ scans.indices.map(Right(_))
    Phases.readLoop(env, specs, scans, cycle, 0, minCycles = 1)
    val (qs, ss) = Phases.readLoop(env, specs, scans, cycle, 0, minCycles = 3)
    if (env.tr.on) Phases.replayHops(env, specs)
    queryMetrics(env, qs) ++ scanMetric(ss)
  }

  def scanMetric(ss: Samples): Map[String, Metric] =
    Map("scan_ms_p50" -> Metric(Stats.median(ss.ms.toSeq), "ms"))
}

/** Registration of a set of relations plus the read path over them, shared
  * by the workloads that set up lineage in DSLog before their loop.
  */
abstract class Registering(env: Env) extends Workload {
  protected var log: DSLog = _
  protected var regs: Seq[Registered] = Nil
  /** `ingest_rows_per_s` and `stored_bytes_per_raw_byte` of the last set-up. */
  protected var registration = Map.empty[String, Metric]

  /** Relations to register, built from the seed; `name` prefixes dirs. */
  protected def relations(): Seq[Rel]
  protected def name: String

  /** Builds and caches the relations, then registers and writes them, as
    * the ingest workload does; a repetition also measures the rate.
    */
  def setup(): Unit = {
    regs.foreach(_.rel.df.unpersist(blocking = true))
    log = new DSLog(env.spark)
    val rels = relations().map(r => r.copy(df = r.df.cache()))
    val rows = rels.map(_.df.count())
    val (rs, ms, bytes) = Phases.registerAll(env, log, rels, s"${env.work}/$name")
    regs = rs
    val raw = rels.lazyZip(rows).map((r, n) => 2L * 8 * (r.nTo + r.nFrom) * n).sum
    registration = Map(
      "ingest_rows_per_s" -> Metric(rows.sum / (ms / 1000), "1/s"),
      "stored_bytes_per_raw_byte" -> Metric(bytes.toDouble / raw, "B/B"),
    )
  }

  def fingerprint: Map[String, String] =
    regs.map(g => s"${g.rel.kind}:${g.rel.from}->${g.rel.to}" -> Workload.hashRows(g.rows)).toMap

  /** Stored tables of every registered relation decompress to its rows. */
  protected def checkStoredTables(): Unit = regs.foreach { g =>
    Phases.checkStored(env, g.dirs._1, Phases.sortRows(g.rows.iterator))
    Phases.checkStored(env, g.dirs._2, Phases.sortRows(Phases.permute(g.rows, g.rel.nTo).iterator))
  }
}

// ---------------------------------------------------------------- ingest

/** Table VII relation kinds: register both orientations and write them. */
final class Ingest(env: Env) extends Workload {
  private var rels: Seq[Rel] = Nil
  private var rowsOf = Map.empty[Rel, Array[Array[Long]]]
  private def relRows(r: Rel): Array[Array[Long]] = {
    if (!rowsOf.contains(r)) rowsOf += r -> Rel.collect(r.df)
    rowsOf(r)
  }
  private var rows, bytes, raw = 0L
  private var loopMs = 0.0
  private var lastPass: Seq[(LineageTables, (String, String))] = Nil
  private var lastLog: DSLog = _
  /** Distinct tables registered per relation over all passes (range
    * partition bounds are sampled, so passes may compress differently).
    */
  private var distinct: IndexedSeq[mutable.LinkedHashSet[LineageTables]] = IndexedSeq.empty
  private var passes = 0L

  private def build(): Seq[Rel] = {
    val s = env.spark
    val n = env.sz(192).toLong
    val mm = env.sz(32).toLong
    val img = env.sz(64).toLong
    val exp = env.sz(128)
    // One relation per Table VII kind, each a few tens of thousands of rows.
    val specs: Seq[(String, Int, org.apache.spark.sql.DataFrame)] = Seq(
      ("elementwise", 2, LineageGen.elementwise(s, Seq(n, n))),
      ("aggregate", 1, LineageGen.aggregate2d(s, n, n, axis = 1)),
      ("tile", 1, LineageGen.tile1d(s, n * n / 4, 4)),
      ("matvec", 1, LineageGen.matvecLeft(s, n, n)),
      ("matmul", 2, LineageGen.matmulLeft(s, mm, mm, mm)),
      ("conv", 2, LineageGen.conv2dSame(s, img, img, 3, 3)),
      ("sort", 1, LineageGen.sortPerm(s, env.sz(32768), seed = env.seed + 7)),
      ("lime", 1, Explain.lime(s, exp, exp, outCells = 5, grid = 8, segs = 12, seed = env.seed + 21)),
      ("drise", 1, Explain.drise(s, exp, exp, outCells = 5, blobs = 100, maxRadius = 8, seed = env.seed + 22)),
      ("groupby", 2, LineageGen.groupBy(s, SynthTables.genres(env.sz(4096), card = 400, seed = env.seed + 11), nCols = 3)),
      ("join", 2, LineageGen.joinSide(s,
        SynthTables.episodeParents(env.sz(1024), avgEpisodes = 40.0, seed = env.seed + 13), nCols = 4, colOffset = 0)),
    )
    specs.zipWithIndex.map { case ((kind, nTo, df), i) =>
      Rel.bounded(kind, s"$kind$i.in", s"$kind$i.out", nTo, df.cache())
    }
  }

  def setup(): Unit = {
    rels.foreach(_.df.unpersist(blocking = true))
    rowsOf = Map.empty
    rels = build()
    distinct = rels.map(_ => mutable.LinkedHashSet.empty[LineageTables]).toIndexedSeq
    passes = 0L
  }

  def loop(seconds: Double): Loop = {
    val t0 = System.nanoTime()
    var ops = 0L
    bytes = 0L
    val passMs = ArrayBuffer.empty[Double]
    while (Stats.nanos(t0) < seconds * 1000 || ops == 0) {
      val log = new DSLog(env.spark)
      val p0 = System.nanoTime()
      val pass = rels.zipWithIndex.map { case (r, i) =>
        val t = env.tr.op(ops)(Phases.register(env, log, r))
        val (dirs, b) = Phases.write(env, s"${env.work}/ingest/$i", r, t)
        ops += 1
        bytes += b
        (t, dirs)
      }
      passMs += Stats.nanos(p0)
      pass.zipWithIndex.foreach { case ((t, _), i) => distinct(i) += t }
      passes += 1
      lastPass = pass
      lastLog = log
    }
    loopMs = Stats.nanos(t0)
    env.details("pass_ms") = passMs.toSeq
    val n = ops / rels.size
    rows = n * rels.map(r => relRows(r).length.toLong).sum
    raw = n * rels.map(r => 2L * 8 * (r.nTo + r.nFrom) * relRows(r).length).sum
    Loop(ops, loopMs)
  }

  def endToEnd: Map[String, Metric] = Map(
    "ingest_rows_per_s" -> Metric(rows / (loopMs / 1000), "1/s"),
    "stored_bytes_per_raw_byte" -> Metric(bytes.toDouble / raw, "B/B"),
  )

  /** Read-after-write over the sort permutation the last pass stored. */
  def secondary(): Map[String, Metric] = {
    val (r, (t, dirs)) = rels.zip(lastPass).find(_._1.kind == "sort").get
    Workload.readProbe(env, lastLog, new Registered(r, t, dirs, relRows(r)))
  }

  /** Every registered table decompresses to its relation's rows; the last
    * pass's tables are read back from disk, the others checked in memory.
    * Each registration counts once.
    */
  def check(): Unit =
    rels.zip(lastPass).zipWithIndex.foreach { case ((r, (last, (bDir, fDir))), i) =>
      val bwd = Phases.sortRows(relRows(r).iterator)
      val fwd = Phases.sortRows(Phases.permute(relRows(r), r.nTo).iterator)
      Phases.checkStored(env, bDir, bwd)
      Phases.checkStored(env, fDir, fwd)
      val ok = distinct(i).forall(t => t == last ||
        Phases.sameRows(Phases.sortRows(ProvRC.decompress(t.backward)), bwd) &&
          Phases.sameRows(Phases.sortRows(ProvRC.decompress(t.forward)), fwd))
      (1L until passes).foreach(_ => env.checks.record(ok, s"ingest ${r.kind}: a pass's table is not lossless"))
    }

  /** Replays, once per relation (one per kind): `LineageCompressor.compress`
    * of both orientations, local ProvRC over the sorted relation, the
    * boundary re-merge over its compressed table, and the codec over that
    * table.
    */
  override def replay(): Unit = {
    val tr = env.tr
    var remergeMs, remergeRows = 0.0
    Phases.replayCompressor(env, rels)
    rels.zip(lastPass).foreach { case (r, (t, _)) =>
      tr.counters(s"LineageCompressor.compress.rows_in.${r.kind}") = relRows(r).length.toDouble
      val sorted = Phases.sortRows(relRows(r).iterator)
      val c0 = System.nanoTime()
      tr.span("ProvRC.compress")(ProvRC.compress(sorted.iterator, r.nTo, r.nFrom))
      tr.count(s"ProvRC.compress.us_per_row.${r.kind}", Stats.nanos(c0) * 1000 / sorted.length)
      val m0 = System.nanoTime()
      tr.span("ProvRC.remerge")(ProvRC.remerge(t.backward, r.nTo, r.nFrom))
      remergeMs += Stats.nanos(m0)
      remergeRows += t.backward.size
      Phases.replayCodec(env, t.backward)
    }
    tr.count("ProvRC.remerge.us_per_row", remergeMs * 1000 / math.max(1.0, remergeRows))
  }

  def fingerprint: Map[String, String] =
    rels.map(r => s"${r.kind}:${r.from}" -> Workload.hashRows(relRows(r))).toMap
}

// ------------------------------------------------------------ query_wide

/** Queries and filtered scans over weakly compressible tables. */
final class QueryWide(env: Env) extends Registering(env) {
  protected def name = "wide"
  private var specs: IndexedSeq[QSpec] = IndexedSeq.empty
  private var scans: IndexedSeq[ScanSpec] = IndexedSeq.empty
  private var cycle: IndexedSeq[Either[Int, Int]] = IndexedSeq.empty
  private var qs, ss: Samples = _
  private var image: Pipeline = _

  protected def relations(): Seq[Rel] = {
    val s = env.spark
    val exp = env.sz(256)
    image = Workflows.imagePipeline(s, src = env.sz(256), n = env.sz(128))
    val shapes = image.arrays.toMap
    val imageRels = image.steps.zipWithIndex.map { case (st, i) =>
      Rel(s"image$i", st.from, st.to, shapes(st.from), shapes(st.to), st.relation)
    }
    Seq(
      Rel.bounded("sort", "sort.in", "sort.out", 1, LineageGen.sortPerm(s, env.sz(60000), seed = env.seed + 7)),
      Rel.bounded("drise", "drise.in", "drise.out", 1,
        Explain.drise(s, exp, exp, outCells = 5, blobs = 150, maxRadius = 8, seed = env.seed + 22)),
      Rel.bounded("groupby", "groupby.in", "groupby.out", 2,
        LineageGen.groupBy(s, SynthTables.genres(env.sz(4096), card = 400, seed = env.seed + 11), nCols = 3)),
    ) ++ imageRels
  }

  override def setup(): Unit = {
    super.setup()
    val rng = env.rng(301)
    val single = regs.filterNot(_.rel.kind.startsWith("image"))
    // Most queries hop through Spark over the sort permutation, so the
    // median falls among them; the other tables and the image workflow add
    // driver hops, one to five per query. A query whose cost would
    // depend on which of a few output cells the seed picks (the five D-RISE
    // outputs, the LIME detection cells) covers all of them or starts past
    // them, so that seeds differ in placement, not in the work asked for.
    def one(g: Registered, label: String, fwd: Boolean, rects: Seq[ThetaJoin.Rect]): QSpec = {
      val r = g.rel
      if (fwd) QSpec(s"${r.kind}.$label", log, Seq(r.from, r.to), rects, () => Seq(g.fwdHop))
      else QSpec(s"${r.kind}.$label", log, Seq(r.to, r.from), rects, () => Seq(g.bwdHop))
    }
    val Seq(sort, drise, groupby) = single
    val (in, out) = (sort.rel.fromShape, sort.rel.toShape)
    specs = IndexedSeq(
      one(sort, "fwd.points1", true, Queries.points(in, 1, rng)),
      one(sort, "fwd.points10", true, Queries.points(in, 10, rng)),
      one(sort, "fwd.points100", true, Queries.points(in, 100, rng)),
      one(sort, "bwd.points1", false, Queries.points(out, 1, rng)),
      one(sort, "bwd.points10", false, Queries.points(out, 10, rng)),
      one(sort, "fwd.box", true, Seq(Queries.box(in, 1e-3, rng))),
      one(sort, "bwd.box", false, Seq(Queries.box(out, 1e-3, rng))),
      one(drise, "bwd.all", false, Seq(drise.rel.toShape.map(d => Interval(0, d - 1)).toVector)),
      one(drise, "fwd.points100", true, Queries.points(drise.rel.fromShape, 100, rng)),
      one(groupby, "fwd.points100", true, Queries.points(groupby.rel.fromShape, 100, rng)),
      one(groupby, "bwd.points10", false, Queries.points(groupby.rel.toShape, 10, rng)),
    )
    val hops = regs.filter(_.rel.kind.startsWith("image"))
    val path = image.path
    specs ++= Seq(
      QSpec("image.fwd.points10", log, path, Queries.points(image.firstShape, 10, rng), () => hops.map(_.fwdHop)),
      // Backward from the last image, before the LIME step.
      QSpec("image.bwd.points10", log, path.reverse.tail,
        Queries.points(image.arrays.toMap.apply(path.reverse(1)), 10, rng), () => hops.reverse.tail.map(_.bwdHop)),
    )
    // One scan of each orientation of the three single-hop tables.
    scans = Phases.scanSpecs(env, single, share = 0.01, perTable = 1, salt = 303)
    val mix = specs.indices.map(Left(_)) ++ scans.indices.map(Right(_))
    cycle = rng.shuffle(mix).toIndexedSeq
  }

  def loop(seconds: Double): Loop = {
    val (q, s) = Phases.readLoop(env, specs, scans, cycle, seconds)
    qs = q
    ss = s
    env.details("query_ms_by_label") = q.byLabel ++ s.byLabel
    Loop(q.ms.size + s.ms.size, q.wallMs + s.wallMs)
  }

  def endToEnd: Map[String, Metric] =
    Workload.queryMetrics(env, qs) ++ Workload.scanMetric(ss) ++ registration

  def secondary(): Map[String, Metric] = Map.empty

  override def replay(): Unit = Phases.replayHops(env, specs)

  def check(): Unit = checkStoredTables()

  override def fingerprint: Map[String, String] = super.fingerprint + ("queries" -> Workload.hashSpecs(specs))
}
