package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._
import repro.provrc.{Interval, ThetaJoin}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** A reported number with its unit. */
final case class Metric(value: Double, unit: String)

/** Just enough JSON to print results: maps, sequences, strings, numbers. */
object Json {
  def apply(v: Any): String = v match {
    case null                         => "null"
    case s: String                    => quote(s)
    case b: Boolean                   => b.toString
    case i: Int                       => i.toString
    case l: Long                      => l.toString
    case d: Double                    => if (d.isNaN || d.isInfinite) "null" else d.toString
    case Metric(v, u)                 => apply(Map("value" -> v, "unit" -> u))
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case s: Iterable[_]               => s.map(apply).mkString("[", ",", "]")
    case other                        => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case '\n'          => b ++= "\\n"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    b += '"'
    b.toString
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it: the 11th
    * largest sample. Returns (value, percentile, samples).
    */
  def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.size
    if (n <= 10) (s.last, 100.0, n)
    else (s(n - 11), 100.0 * (n - 10) / n, n)
  }

  def nanos(t0: Long): Double = (System.nanoTime() - t0) / 1e6
}

/** Output checks, run outside the timed region. Each checked operation
  * counts once; a mismatch or an exception counts it as failed.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L
  val messages = ArrayBuffer.empty[String]

  def record(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (messages.size < 20) messages += what
    }
  }

  def fail(what: String): Unit = record(ok = false, what)
}

/** Span recorder. Spans are opened and closed around calls into the
  * program's public functions from the benchmark's own code, kept in
  * memory and written out at exit. Counters sit at the same boundaries.
  * When `on` is false every call passes straight through.
  */
final class Tracer {
  final case class Span(id: Int, name: String, parent: Int, op: Long, start: Long, end: Long)

  var on = false
  private var opId = -1L
  private var stack: List[Int] = Nil
  val spans = ArrayBuffer.empty[Span]
  val counters = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  private var nextId = 0

  def op[A](id: Long)(f: => A): A = { opId = id; f }

  def span[A](name: String)(f: => A): A =
    if (!on) f
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try f
      finally {
        spans += Span(id, name, parent, opId, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def count(name: String, v: Double): Unit = if (on) counters(name) += v

  /** Spans with the given name. */
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Self time per span name: the span's duration minus the part of its
    * interval its child spans cover (children never overlap: one thread).
    * Only the spans from index `from` until `until` count.
    */
  def selfMs(from: Int, until: Int): Map[String, Double] = {
    val first = spans.slice(from, until)
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    first.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    first
      .groupBy(_.name)
      .map { case (n, ss) => n -> ss.map(s => (s.end - s.start - childNs(s.id)) / 1e6).sum }
  }

  def write(path: Path): Unit = {
    val b = new StringBuilder
    spans.foreach { s =>
      b ++= Json(Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "op" -> s.op,
        "start_ns" -> s.start, "end_ns" -> s.end))
      b += '\n'
    }
    Files.createDirectories(path.getParent)
    Files.write(path, b.toString.getBytes(StandardCharsets.UTF_8))
  }
}

/** Spark job, task and scan-partition counts through the public listener
  * API. Jobs started while the local property `perfbench.kind` is "scan"
  * count their widest stage as scan partitions.
  */
final class SparkCounters extends SparkListener {
  val jobsStarted = new AtomicLong
  val jobsEnded = new AtomicLong
  val taskMs = new AtomicLong
  val scanPartitions = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobsStarted.incrementAndGet()
    val kind = Option(e.properties).map(_.getProperty("perfbench.kind")).orNull
    if (kind == "scan" && e.stageInfos.nonEmpty)
      scanPartitions.addAndGet(e.stageInfos.map(_.numTasks).max.toLong)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    if (e.taskMetrics != null) taskMs.addAndGet(e.taskMetrics.executorRunTime)
  }

  /** Listener events arrive asynchronously; wait until every started job
    * has been seen to end.
    */
  def settle(): Unit = {
    val deadline = System.nanoTime() + 5_000_000_000L
    Thread.sleep(50)
    while (jobsEnded.get < jobsStarted.get && System.nanoTime() < deadline) Thread.sleep(20)
    Thread.sleep(50)
  }

  def snapshot: Map[String, Long] = Map(
    "jobs" -> jobsStarted.get, "task_ms" -> taskMs.get,
    "scan_partitions" -> scanPartitions.get)
}

/** Reference lineage over an uncompressed relation, for checking query
  * answers: (key cell, value cell) pairs as flat row-major indices, sorted
  * by key.
  */
final class RefHop(rows: Array[Array[Long]], keyCols: Seq[Int], valCols: Seq[Int],
    val keyShape: Seq[Long], val valShape: Seq[Long]) {
  private val (keys, vals) = {
    val pairs = rows.map(r => (RefHop.flat(keyCols.map(r(_)), keyShape), RefHop.flat(valCols.map(r(_)), valShape)))
    val sorted = pairs.sortBy(_._1)
    (sorted.map(_._1), sorted.map(_._2))
  }

  /** Value cells linked to any of the key cells. */
  def step(frontier: Array[Long]): Array[Long] = {
    val out = mutable.LongMap.empty[Unit]
    frontier.foreach { k =>
      var i = java.util.Arrays.binarySearch(keys, k)
      if (i >= 0) {
        while (i > 0 && keys(i - 1) == k) i -= 1
        while (i < keys.length && keys(i) == k) { out(vals(i)) = (); i += 1 }
      }
    }
    out.keys.toArray.sorted
  }
}

object RefHop {
  def flat(cell: Seq[Long], shape: Seq[Long]): Long = {
    var f = 0L
    var i = 0
    while (i < shape.size) { f = f * shape(i) + cell(i); i += 1 }
    f
  }

  /** Distinct flat indices of the cells a rectangle set covers. */
  def cells(rects: Seq[ThetaJoin.Rect], shape: Seq[Long]): Array[Long] = {
    val out = mutable.LongMap.empty[Unit]
    rects.foreach(r => ThetaJoin.expand(r).foreach(c => out(flat(c, shape)) = ()))
    out.keys.toArray.sorted
  }

  /** The reference answer of a multi-hop query. */
  def answer(hops: Seq[RefHop], query: Seq[ThetaJoin.Rect]): Array[Long] =
    hops.foldLeft(cells(query, hops.head.keyShape))((f, h) => h.step(f))
}

/** Query inputs placed from the seed. */
object Queries {
  /** A box covering about `sel` of an array with the given shape. */
  def box(shape: Seq[Long], sel: Double, rng: Random): ThetaJoin.Rect = {
    val f = math.pow(sel, 1.0 / shape.size)
    shape.map { d =>
      val len = math.max(1L, math.min(d, math.round(d * f)))
      val lo = rng.nextLong(d - len + 1)
      Interval(lo, lo + len - 1)
    }.toVector
  }

  /** `k` scattered single cells. */
  def points(shape: Seq[Long], k: Int, rng: Random): Seq[ThetaJoin.Rect] =
    Seq.fill(k)(shape.map { d => val v = rng.nextLong(d); Interval(v, v) }.toVector).distinct
}
