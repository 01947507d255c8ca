package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths, StandardCopyOption}
import java.util.concurrent.{Callable, Executors, TimeUnit}

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.core.{GeerEstimator, Smm, WalkEngine}
import repro.graph.{CsrGraph, GraphGen, Spectral}
import repro.util.Rng

/** One benchmark workload: GEER on an analog graph at one ε.
  *
  * @param universe size of the workload's fixed query log: uniform random
  *                 pairs drawn once per graph. A run's seed shuffles the log
  *                 into its query stream and seeds every query, so ground
  *                 truth can be cached per pair across runs
  * @param minDeg   least degree of a query endpoint (see perfbench/README.md)
  * @param warm     seconds of untimed warm-up queries before measuring; on
  *                 the Spark walk path query times keep falling for ~10 s
  * @param traced   queries in the traced run (a fixed count, so its
  *                 per-layer counts repeat exactly for a given seed)
  */
final case class Workload(name: String, graph: String, eps: Double,
                          universe: Int, minDeg: Int, warm: Double, traced: Int)

/** The graph, λ and walk engine a workload's queries need. */
final class Loaded(val g: CsrGraph, val lambda: Double, val engine: WalkEngine,
                   val buildNs: Long, val lambdaNs: Long)

/** PER query benchmark. One closed-loop caller thread sends the next query
  * only after the previous one returns, on a local Spark session.
  *
  * `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced,
  * per-layer decomposition of [[Traced]] instead. The last stdout line is
  * the JSON result.
  */
object PerfBench {

  /** δ and τ as in the paper's §5.1 and the repository's table harness. */
  val delta = 0.01
  val tau = 5
  /** λ settings of the repository's table harness (`Harness.lambda`). */
  val lambdaTol = 1e-9
  val lambdaMaxIter = 3000
  /** Timed set-ups per run; `setup_s` is their median. */
  val setups = 2

  val workloads: Seq[Workload] = Seq(
    Workload("geer-youtube-eps0.05", "youtube-lite", 0.05, universe = 192, minDeg = 1, warm = 12, traced = 48),
    Workload("geer-orkut-eps0.2", "orkut-lite", 0.2, universe = 512, minDeg = 8, warm = 3, traced = 4096),
  )

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => fail(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String): String = kv.getOrElse(k, fail(s"missing --$k"))
    val w = workloads.find(_.name == need("workload"))
      .getOrElse(fail(s"unknown workload; known: ${workloads.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => fail(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toInt
    if (seconds < 1) fail("--seconds must be at least 1")
    Args(w, need("seed").toLong, seconds, trace)
  }

  private def fail(msg: String): Nothing = throw new IllegalArgumentException(msg)

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv)
    val spark = SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    try {
      val result = if (args.trace) Traced.run(spark, args) else run(spark, args)
      println(result.json)
    } finally spark.stop()
  }

  // ----------------------------------------------------------------- set-up

  def load(spark: SparkSession, w: Workload): Loaded = {
    val t0 = System.nanoTime()
    val g = GraphGen.datasetAnalog(w.graph)
    val t1 = System.nanoTime()
    val lambda = Spectral.lambda(g, tol = lambdaTol, maxIter = lambdaMaxIter)
    val t2 = System.nanoTime()
    new Loaded(g, lambda, new WalkEngine(spark, g), t1 - t0, t2 - t1)
  }

  /** Run header: what a number was measured on. */
  def header(spark: SparkSession, w: Workload, l: Loaded): Unit = {
    val rt = Runtime.getRuntime
    println(s"header workload=${w.name} nproc=${rt.availableProcessors} " +
      s"spark.defaultParallelism=${spark.sparkContext.defaultParallelism} " +
      s"jvm.xmx_mb=${rt.maxMemory / (1L << 20)} graph=${w.graph} n=${l.g.n} m=${l.g.m} " +
      s"lambda=${l.lambda} walk.localStepThreshold=${l.engine.localStepThreshold}")
  }

  /** Garbage collections so far, over all collectors. */
  def gcCount(): Long = {
    var c = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => c += math.max(b.getCollectionCount, 0L))
    c
  }

  /** Heap in use after a forced GC, in MB. */
  def heapMb(): Double = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  // ---------------------------------------------------------------- queries

  /** `count` pairs `(s, t)`, `s ≠ t`, uniform over the nodes of degree at
    * least `w.minDeg`, from the stream `(seed, stream)`.
    */
  def pairs(w: Workload, g: CsrGraph, count: Int, seed: Long, stream: Long): Array[(Int, Int)] = {
    val rng = Rng(seed, stream)
    def node(): Int = {
      var v = rng.nextInt(g.n)
      while (g.degree(v) < w.minDeg) v = rng.nextInt(g.n)
      v
    }
    Array.fill(count) {
      val s = node()
      var t = node()
      while (t == s) t = node()
      (s, t)
    }
  }

  val universeSeed = 0x10C5EEDL
  val streamStream = 1L
  val warmStream = 2L

  /** The run's query stream: the workload's query log in a seeded order.
    * Query `q` asks `stream(q % stream.length)`.
    */
  def stream(w: Workload, g: CsrGraph, seed: Long): Array[(Int, Int)] = {
    val log = pairs(w, g, w.universe, universeSeed, 0L)
    val rng = Rng(seed, streamStream)
    var i = log.length - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val x = log(i); log(i) = log(j); log(j) = x
      i -= 1
    }
    log
  }

  /** Seed of the estimator serving pass `pass` over the stream: each pass
    * gets its own, so a pair repeated in a later pass is a fresh query.
    */
  def passSeed(seed: Long, pass: Long): Long = Rng.derive(seed, 0x9A55L + pass)

  def estimator(l: Loaded, seed: Long): GeerEstimator =
    new GeerEstimator(l.g, l.lambda, delta, tau, l.engine, seed)

  /** Ground truth (the paper's §5.1 SMM-1000, `Smm.groundTruth`) for each
    * pair, computed on all cores for pairs not yet in the cache file
    * `<perfbench.cache>/<graph>.tsv`. Without that property nothing persists.
    * Returns the truths and the mean compute ms per pair, as recorded when
    * each pair was computed.
    */
  def truths(w: Workload, g: CsrGraph, ps: Seq[(Int, Int)]): (Map[(Int, Int), Double], Double) = {
    val file = sys.props.get("perfbench.cache").map(d => Paths.get(d, s"${w.graph}.tsv"))
    val cache = mutable.Map.empty[(Int, Int), (Double, Double)]
    file.filter(Files.exists(_)).foreach { f =>
      Files.readAllLines(f, UTF_8).asScala.foreach { line =>
        val Array(s, t, r, ms) = line.split('\t')
        cache((s.toInt, t.toInt)) = (r.toDouble, ms.toDouble)
      }
    }
    val missing = ps.distinct.filterNot(cache.contains)
    if (missing.nonEmpty) {
      val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
      try {
        val futures = missing.map { case (s, t) =>
          pool.submit(new Callable[(Double, Double)] {
            def call(): (Double, Double) = {
              val t0 = System.nanoTime()
              val r = Smm.groundTruth(g, s, t)
              (r, (System.nanoTime() - t0) / 1e6)
            }
          })
        }
        missing.zip(futures).foreach { case (p, f) => cache(p) = f.get() }
      } finally {
        pool.shutdown()
        pool.awaitTermination(1, TimeUnit.MINUTES)
      }
      file.foreach(save(_, cache))
    }
    val used = ps.distinct.map(p => p -> cache(p))
    (used.map { case (p, (r, _)) => p -> r }.toMap, used.map(_._2._2).sum / used.length)
  }

  private def save(f: Path, cache: mutable.Map[(Int, Int), (Double, Double)]): Unit = {
    Files.createDirectories(f.getParent)
    val tmp = Files.createTempFile(f.getParent, f.getFileName.toString, ".tmp")
    val lines = cache.map { case ((s, t), (r, ms)) => s"$s\t$t\t$r\t$ms" }
    Files.write(tmp, lines.asJava, UTF_8)
    Files.move(tmp, f, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
  }

  /** Untimed warm-up: queries on fresh pairs from their own seed stream for
    * `w.warm` seconds. Returns the number of queries run.
    */
  def warmUp(w: Workload, l: Loaded, seed: Long): Int = {
    val ps = pairs(w, l.g, 64, seed, warmStream)
    val est = estimator(l, Rng.derive(seed, warmStream))
    val deadline = System.nanoTime() + (w.warm * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline) {
      val (s, t) = ps(i % ps.length)
      est.query(s, t, w.eps)
      i += 1
    }
    i
  }

  /** Minimum timed queries: enough for a tail percentile with ten beyond it. */
  val minTimed = 11

  /** Value at sorted index `n − 11`: the highest percentile with at least
    * ten samples beyond it. Returns (value, percentile).
    */
  def tail(sorted: Array[Double]): (Double, Double) = {
    val k = sorted.length - 11
    (sorted(k), 100.0 * k / sorted.length)
  }

  /** [[tail]] of each of `min(5, n / 1000)` (at least one) consecutive equal
    * slices of the latencies in query order, and its median over slices.
    * With tens of thousands of sub-ms queries a single tail is set by a
    * handful of GC or scheduling stalls; the median over slices is not.
    * Returns (value, percentile within a slice, slices).
    */
  def slicedTail(lat: Seq[Double]): (Double, Double, Int) = {
    val k = math.max(1, math.min(5, lat.length / 1000))
    val size = lat.length / k
    val tails = (0 until k).map(i => tail(lat.slice(i * size, (i + 1) * size).toArray.sorted))
    (median(tails.map(_._1)), tails.head._2, k)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  // -------------------------------------------------------- end-to-end run

  def run(spark: SparkSession, a: Args): Result = {
    val w = a.workload
    val setupS = ArrayBuffer.empty[Double]
    var l: Loaded = null
    while (setupS.length < setups) {
      l = null // the previous set-up is garbage before the next starts
      val t0 = System.nanoTime()
      l = load(spark, w)
      setupS += (System.nanoTime() - t0) / 1e9
    }
    val heap = heapMb()
    header(spark, w, l)
    println(s"setup_s runs=${setupS.mkString(",")}")

    println(s"warmup queries=${warmUp(w, l, a.seed)}")

    val queries = stream(w, l.g, a.seed)
    val lat = ArrayBuffer.empty[Double]
    val answers = ArrayBuffer.empty[((Int, Int), Double)]
    var threw = 0
    val ests = ArrayBuffer.empty[GeerEstimator]
    val gcs0 = gcCount()
    val start = System.nanoTime()
    val deadline = start + a.seconds * 1000000000L
    var q = 0
    while (q < minTimed || System.nanoTime() < deadline) {
      val pass = q / queries.length
      if (pass == ests.length) ests += estimator(l, passSeed(a.seed, pass))
      val (s, t) = queries(q % queries.length)
      val t0 = System.nanoTime()
      try {
        val r = ests(pass).query(s, t, w.eps)
        lat += (System.nanoTime() - t0) / 1e6
        answers += (((s, t), r.estimate))
      } catch {
        case e: Exception =>
          lat += (System.nanoTime() - t0) / 1e6
          threw += 1
          Console.err.println(s"query ($s, $t) threw: $e")
      }
      q += 1
    }
    val wallS = (System.nanoTime() - start) / 1e9
    val gcs = gcCount() - gcs0

    val (truth, truthMs) = truths(w, l.g, answers.map(_._1).toSeq)
    val misses = answers.count { case (p, r) => !(math.abs(r - truth(p)) <= w.eps) }
    val sorted = lat.toArray.sorted
    val (tailMs, tailPct, slices) = slicedTail(lat.toSeq)
    println(f"timed queries=$q wall_s=$wallS%.3f misses=$misses threw=$threw " +
      f"tail_percentile=$tailPct%.2f tail_slices=$slices gc_count=$gcs " +
      f"truth_pairs=${truth.size} truth_ms_per_pair=$truthMs%.1f")
    val failed = misses + threw
    Result(
      // (ε, δ) guarantee: each answer misses ε with probability at most δ.
      correct = threw == 0 && misses <= delta * q,
      attempted = q,
      failed = failed,
      metrics = Seq(
        Metric("setup_s", median(setupS.toSeq), "s"),
        Metric("query_ms_p50", median(sorted.toSeq), "ms"),
        Metric("query_ms_tail", tailMs, "ms"),
        Metric("queries_per_s", (q - threw) / wallS, "1/s"),
        Metric("ok_frac", (q - failed).toDouble / q, "ratio"),
        Metric("setup_heap_mb", heap, "MB"),
      ))
  }
}

final case class Metric(name: String, value: Double, unit: String)

final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]) {
  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
