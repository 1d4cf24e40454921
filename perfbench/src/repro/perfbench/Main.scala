package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Entry point of the DSLog benchmark (see perfbench/README.md).
  *
  * {{{
  *   Main --workload W --seed N --seconds S --trace 0|1 --out DIR
  *        [--scale X] [--sha SHA] [--source-hash H]
  * }}}
  * Prints one JSON line with the environment, input fingerprints and
  * details, then, as the last line, the result object.
  */
object Main {
  /** Relation kinds of the ingest workload, for per-kind layer metrics. */
  val Kinds: Seq[String] = Seq("elementwise", "aggregate", "tile", "matvec", "matmul", "conv",
    "sort", "lime", "drise", "groupby", "join")

  /** Modules whose self time the traced run reports, per loop operation. */
  val LoopLayers: Seq[String] = Seq("DSLog", "ProvRCTable", "QueryProcessor", "ProvRCTableProvider")

  /** Modules of the op catalog, whose self time is per catalog call. */
  val CatalogLayers: Seq[String] = Seq("Ops", "ProvRC", "ReuseManager")

  /** Catalog passes with spans in a traced run. */
  val TracedCatalogPasses = 2

  /** Set-up repetitions; `setup_s` takes their median. */
  val SetupRuns = 2

  def main(argv: Array[String]): Unit = {
    val args = argv.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = args("workload")
    val seed = args("seed").toLong
    val seconds = args("seconds").toDouble
    val trace = args("trace") == "1"
    val out = Paths.get(args("out"))
    val scale = args.getOrElse("scale", "1").toDouble
    val work = out.resolve(s"work-${ProcessHandle.current().pid()}")

    val cores = Runtime.getRuntime.availableProcessors()
    def session(): SparkSession = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    val env = new Env(() => session(), seed, scale, work, new Tracer, new Checks, new SparkCounters)
    try run(env, workload, seconds, trace, args, out)
    finally {
      if (env.sparkStarted) env.spark.stop()
      deleteTree(work)
    }
  }

  private def run(env: Env, workload: String, seconds: Double, trace: Boolean,
      args: Map[String, String], out: Path): Unit = {
    val w = Workload(workload, env)
    val phases = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    def phase[A](name: String)(f: => A): A = {
      val t0 = System.nanoTime()
      try f finally phases(name) = phases.getOrElse(name, 0.0) + Stats.nanos(t0) / 1000
    }
    val catalog = if (trace) Map.empty[String, Metric] else phase("catalog")(Workload.catalogProbe(env, seconds))

    val t0 = System.nanoTime()
    env.spark.range(1).count()
    val sparkUpMs = Stats.nanos(t0)
    env.spark.sparkContext.addSparkListener(env.sparkCounters)
    val setupMs = (0 until SetupRuns).map { _ =>
      val t0 = System.nanoTime()
      w.setup()
      Stats.nanos(t0)
    }
    val heapMb = retainedHeapMb()
    phase("warmup")(w.warmup())

    val details = scala.collection.mutable.LinkedHashMap.empty[String, Any]
    val metrics: Map[String, Metric] =
      if (!trace) {
        phase("loop")(w.loop(seconds))
        val e2e = catalog ++ w.endToEnd ++ phase("secondary")(w.secondary())
        phase("check")(w.check())
        e2e ++ Map(
          "setup_s" -> Metric((sparkUpMs + Stats.median(setupMs)) / 1000, "s"),
          "retained_heap_mb" -> Metric(heapMb, "MB"),
          "ok_share" -> Metric(1.0 - env.checks.failed.toDouble / math.max(1L, env.checks.attempted), "share"),
        )
      } else phase("traced")(traced(env, w, seconds))

    details ++= env.details
    details ++= Seq(
      "spark_up_s" -> sparkUpMs / 1000,
      "setup_runs_s" -> setupMs.map(_ / 1000),
      "phases_s" -> phases,
      "checks_failed" -> env.checks.messages.toSeq,
    )
    val envInfo = Map(
      "git_sha" -> args.getOrElse("sha", "unknown"),
      "source_hash" -> args.getOrElse("source-hash", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "spark_default_parallelism" -> env.spark.sparkContext.defaultParallelism,
      "spark_version" -> env.spark.version,
      "max_heap_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
      "java_version" -> System.getProperty("java.version"),
      "workload" -> workload,
      "seed" -> env.seed,
      "scale" -> env.scale,
      "seconds" -> seconds,
      "trace" -> trace,
    )
    val record = Map(
      "environment" -> envInfo,
      "inputs" -> w.fingerprint,
      "details" -> details,
      "metrics" -> metrics,
    )
    val line = Json(record)
    Files.createDirectories(out)
    Files.write(out.resolve(s"result-$workload-seed${env.seed}-trace${if (trace) 1 else 0}.json"),
      (line + "\n").getBytes(StandardCharsets.UTF_8))
    if (trace) env.tr.write(out.resolve(s"spans-$workload-seed${env.seed}.jsonl"))
    env.checks.messages.foreach(m => Console.err.println(s"check failed: $m"))
    println(line)
    println(Json(Map(
      "correct" -> (env.checks.failed == 0 && env.checks.attempted > 0),
      "attempted" -> env.checks.attempted,
      "failed" -> env.checks.failed,
      "metrics" -> metrics,
    )))
  }

  /** The loop in four quarters: untraced, traced, traced, untraced, so a
    * steady drift (warm-up still under way) cancels out of the tracing
    * overhead. The per-layer metrics come from the traced quarters, the
    * secondary phase, the replays and, for the catalog's layers, a pass on
    * the Table IX seed to warm up and then `TracedCatalogPasses` passes on
    * the run's inputs with spans.
    */
  private def traced(env: Env, w: Workload, seconds: Double): Map[String, Metric] = {
    val tr = env.tr
    val sc = env.sparkCounters
    var (plainOps, plainMs, spanOps, spanMs, gcSpan) = (0L, 0.0, 0L, 0.0, 0.0)
    val sparkSpan = mutable.Map.empty[String, Long].withDefaultValue(0L)
    def traceWhile(f: => Unit): Unit = {
      sc.settle()
      val (s0, g0) = (sc.snapshot, gcMs())
      tr.on = true
      f
      tr.on = false
      sc.settle()
      sc.snapshot.foreach { case (k, v) => sparkSpan(k) += v - s0(k) }
      gcSpan += gcMs() - g0
    }
    Seq(false, true, true, false).foreach { on =>
      if (on) traceWhile { val l = w.loop(seconds / 4); spanOps += l.ops; spanMs += l.ms }
      else { val l = w.loop(seconds / 4); plainOps += l.ops; plainMs += l.ms }
    }
    val loopSpans = tr.spans.size
    val (loopJobs, loopTaskMs, loopGcMs) = (sparkSpan("jobs"), sparkSpan("task_ms"), gcSpan)
    traceWhile { w.secondary(); w.replay() }
    val scanParts = sparkSpan("scan_partitions")
    w.check()
    val catalogInputs = Phases.catalogInputs(env.seed, Phases.CatalogRuns)
    Phases.tableIXPass(env)
    val catalogFrom = tr.spans.size
    var catalog = Seq.empty[Phases.PassResult]
    traceWhile { catalog = Phases.catalogLoop(env, catalogInputs, 0, TracedCatalogPasses) }
    Phases.checkPasses(env, catalog)
    val catalogCalls = math.max(1, catalog.map(_.calls).sum).toDouble

    val ops = math.max(1L, spanOps).toDouble
    val c = tr.counters
    def per(num: String, den: String): Double = c(num) / math.max(1.0, c(den))
    def spanMean(name: String): Double = {
      val s = tr.named(name)
      if (s.isEmpty) 0.0 else s.map(x => (x.end - x.start) / 1e6).sum / s.size
    }
    val queries = tr.named("DSLog.provQuery").size.toDouble
    val scans = tr.named("ProvRCTableProvider.scan").size.toDouble
    val registers = tr.named("ReuseManager.register").size.toDouble
    def self(layers: Seq[String], from: Int, until: Int, per: Double) = {
      val sm = tr.selfMs(from, until)
      layers.map(l => s"self_ms.$l" -> sm.filter(_._1.startsWith(l + ".")).values.sum / per)
    }
    val selfTimes = self(LoopLayers, 0, loopSpans, ops) ++
      self(CatalogLayers, catalogFrom, tr.spans.size, catalogCalls)
    val m = Seq[(String, Double, String)](
      ("DSLog.registerLineage.ms", spanMean("DSLog.registerLineage"), "ms"),
      ("DSLog.provQuery.ms", spanMean("DSLog.provQuery"), "ms"),
    ) ++ Kinds.flatMap(k => Seq(
      (s"LineageCompressor.compress.ms.$k", per(s"LineageCompressor.compress.ms.$k", s"LineageCompressor.compress.calls.$k"), "ms"),
      (s"LineageCompressor.compress.rows_in.$k", c(s"LineageCompressor.compress.rows_in.$k"), "count"),
      (s"LineageCompressor.compress.rows_out.$k", per(s"LineageCompressor.compress.rows_out.$k", s"LineageCompressor.compress.calls.$k"), "count"),
      (s"ProvRC.compress.us_per_row.$k", c(s"ProvRC.compress.us_per_row.$k"), "us/row"),
    )) ++ Seq(
      ("ProvRC.remerge.us_per_row", c("ProvRC.remerge.us_per_row"), "us/row"),
      ("ProvRC.compress.calls_ms", per("ProvRC.compress.calls_ms", "ProvRC.compress.calls"), "ms"),
      ("Codec.encode.ms", per("Codec.encode.ms", "Codec.encode.calls"), "ms"),
      ("Codec.decode.ms", per("Codec.decode.ms", "Codec.decode.calls"), "ms"),
      ("Codec.bytes", per("Codec.bytes", "Codec.encode.calls"), "B"),
      ("ProvRCTable.write.ms", spanMean("ProvRCTable.write"), "ms"),
      ("ProvRCTable.write.bytes", c("ProvRCTable.write.bytes") / math.max(1, tr.named("ProvRCTable.write").size), "B"),
      ("QueryProcessor.insitu.hop_ms.driver", per("QueryProcessor.insitu.hop_ms.driver", "QueryProcessor.insitu.hops.driver"), "ms"),
      ("QueryProcessor.insitu.hop_ms.spark", per("QueryProcessor.insitu.hop_ms.spark", "QueryProcessor.insitu.hops.spark"), "ms"),
      ("QueryProcessor.insitu.hops.driver", c("QueryProcessor.insitu.hops.driver") / math.max(1.0, queries), "count"),
      ("QueryProcessor.insitu.hops.spark", c("QueryProcessor.insitu.hops.spark") / math.max(1.0, queries), "count"),
      ("QueryProcessor.spark_hop.overhead_ms", per("QueryProcessor.insitu.hop_ms.spark", "QueryProcessor.insitu.hops.spark") -
        per("replay.spark_size.join_merge_ms", "replay.spark_size.hops"), "ms"),
      ("ThetaJoin.joinRaw.ms", per("ThetaJoin.joinRaw.ms", "ThetaJoin.joinRaw.calls"), "ms"),
      ("ThetaJoin.joinRaw.pairs_probed", per("ThetaJoin.joinRaw.pairs_probed", "ThetaJoin.joinRaw.calls"), "count"),
      ("ThetaJoin.joinRaw.rects_out", per("ThetaJoin.joinRaw.rects_out", "ThetaJoin.joinRaw.calls"), "count"),
      ("ThetaJoin.joinRaw.hit_ratio", per("ThetaJoin.joinRaw.rects_out", "ThetaJoin.joinRaw.pairs_probed"), "ratio"),
      ("ThetaJoin.mergeRects.ms", per("ThetaJoin.mergeRects.ms", "ThetaJoin.mergeRects.calls"), "ms"),
      ("ThetaJoin.mergeRects.rects_in", per("ThetaJoin.mergeRects.rects_in", "ThetaJoin.mergeRects.calls"), "count"),
      ("ThetaJoin.mergeRects.rects_out", per("ThetaJoin.mergeRects.rects_out", "ThetaJoin.mergeRects.calls"), "count"),
      ("provrc_scan.ms", spanMean("ProvRCTableProvider.scan"), "ms"),
      ("provrc_scan.partitions", scanParts / math.max(1.0, scans), "count"),
      ("provrc_scan.rows_returned", c("provrc_scan.rows_returned") / math.max(1.0, scans), "count"),
      ("ReuseManager.register.ms", c("ReuseManager.register.ms") / math.max(1.0, registers), "ms"),
      ("ReuseManager.dim_hits", per("ReuseManager.dim_hits", "ReuseManager.passes"), "count"),
      ("ReuseManager.gen_hits", per("ReuseManager.gen_hits", "ReuseManager.passes"), "count"),
      ("ReuseManager.mispredictions", per("ReuseManager.mispredictions", "ReuseManager.passes"), "count"),
      ("ReuseManager.hit_ratio", c("ReuseManager.hits") / math.max(1.0, registers), "ratio"),
      ("Ops.lineage.ms", c("Ops.lineage.ms") / math.max(1, tr.named("Ops.lineage").size), "ms"),
      ("spark.jobs", loopJobs / ops, "count"),
      ("spark.task_ms", loopTaskMs / ops, "ms"),
      ("jvm.gc_ms", loopGcMs / ops, "ms"),
      ("trace.overhead_pct", 100.0 * ((spanMs / ops) / (plainMs / math.max(1L, plainOps)) - 1), "%"),
      ("trace.spans", loopSpans / ops, "count"),
    ) ++ selfTimes.map { case (n, v) => (n, v, "ms") }
    m.map { case (n, v, u) => n -> Metric(v, u) }.toMap
  }

  private def gcMs(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum.toDouble

  /** Used heap after a full collection, the least of three: objects Spark
    * releases asynchronously (cleaned shuffles, broadcasts) go by the last.
    */
  private def retainedHeapMb(): Double =
    (0 until 3).map { _ =>
      System.gc()
      Thread.sleep(200)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }.min

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.iterator().asScala.toSeq.reverse.foreach(Files.deleteIfExists)
      finally s.close()
    }
}
