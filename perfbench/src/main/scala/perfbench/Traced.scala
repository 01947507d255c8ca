package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import repro.core.{Amc, Ell, Geer, Smm}
import repro.util.Rng

/** Spark scheduler totals over the jobs of the traced queries. */
final case class JobTotals(jobs: Long, jobMs: Double, taskBusyMs: Double, waitMs: Double)

/** Spark scheduler counters for jobs in [[SchedulerListener.group]]: their
  * wall time, task busy time and the part of each job's wall time that its
  * longest task does not cover (scheduling and result handling).
  */
final class SchedulerListener extends SparkListener {
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageJob = mutable.Map.empty[Int, Int]
  private val longestTask = mutable.Map.empty[Int, Long]
  private var totals = JobTotals(0, 0, 0, 0)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
    if (group == SchedulerListener.group) {
      jobStart(e.jobId) = e.time
      e.stageIds.foreach(stageJob(_) = e.jobId)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageJob.get(e.stageId).foreach { j =>
      val d = e.taskInfo.duration
      totals = totals.copy(taskBusyMs = totals.taskBusyMs + d)
      longestTask(j) = math.max(longestTask.getOrElse(j, 0L), d)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { start =>
      val wall = e.time - start
      totals = JobTotals(totals.jobs + 1, totals.jobMs + wall, totals.taskBusyMs,
        totals.waitMs + wall - longestTask.remove(e.jobId).getOrElse(0L))
    }
  }

  def snapshot: JobTotals = synchronized(totals)
  def jobs: Long = snapshot.jobs

  /** Listener events arrive asynchronously: wait until `expected` jobs ended. */
  def awaitJobs(expected: Long): Boolean = {
    val deadline = System.nanoTime() + 30000000000L
    while (jobs < expected && System.nanoTime() < deadline) Thread.sleep(5)
    jobs == expected
  }
}

object SchedulerListener {
  val group = "traced"
}

/** Counts and spans of one traced pass over the query list. Times in ns. */
final class Pass {
  var ell = 0L
  var ellNs = 0L
  var smmIters = 0L
  var smmEdgeOps = 0L
  var smmNs = 0L
  var greedyTests = 0L
  var greedyNs = 0L // switchPoint's wall time; its SMM share is subtracted later
  var amcCalls = 0L
  var amcNs = 0L
  var psiNs = 0L
  var batches = 0L
  var capped = 0L
  var walks = 0L
  var steps = 0L
  var sparkSteps = 0L
  var sparkBatches = 0L
  var rebuiltWalks = 0L
  val estimates = mutable.ArrayBuffer.empty[Double]

  /** The counts that must repeat exactly for a given seed. */
  def counts: Seq[(String, Long)] = Seq("ell" -> ell, "smm.iters" -> smmIters,
    "smm.edge_ops" -> smmEdgeOps, "amc.batches" -> batches, "amc.walks" -> walks,
    "walk.steps" -> steps)
}

/** The traced run: each query split into the public calls of `repro.core`,
  * with a span around each layer, checked against the untraced estimators.
  */
object Traced {
  import PerfBench._

  /** A fresh `Smm.State` advanced `iters` times; only `advance` and the
    * state's allocation are timed, the frontier-cost count is not.
    */
  private def smm(l: Loaded, s: Int, t: Int, iters: Int, p: Pass): Smm.State = {
    val t0 = System.nanoTime()
    val st = new Smm.State(l.g, s, t)
    p.smmNs += System.nanoTime() - t0
    var i = 0
    while (i < iters) {
      p.smmEdgeOps += st.frontierCost
      val a = System.nanoTime()
      st.advance()
      p.smmNs += System.nanoTime() - a
      i += 1
    }
    p.smmIters += iters
    st
  }

  /** One query, split into layers. Returns `r_b + r_f`. */
  def query(w: Workload, l: Loaded, s: Int, t: Int, seed: Long, p: Pass): Double = {
    val g = l.g
    val ds = g.degree(s); val dt = g.degree(t)
    val t0 = System.nanoTime()
    val ell = Ell.refined(w.eps, l.lambda, ds, dt)
    p.ellNs += System.nanoTime() - t0
    p.ell += ell

    val t1 = System.nanoTime()
    val lb = Geer.switchPoint(g, l.lambda, s, t, w.eps, delta, tau)
    p.greedyNs += System.nanoTime() - t1
    p.greedyTests += (if (lb < ell) lb else ell - 1)
    val smmBefore = p.smmNs
    val st = smm(l, s, t, lb, p)
    p.greedyNs -= p.smmNs - smmBefore
    val ellF = ell - lb
    if (ellF <= 0) return st.rB

    val t2 = System.nanoTime()
    val psi = Amc.psi(st.sStar, st.tStar, ds, dt, ellF)
    val t3 = System.nanoTime()
    val rf = Amc.estimate(g, s, t, st.sStar, st.tStar, w.eps, ellF, tau, delta, l.engine, seed)
    val t4 = System.nanoTime()
    p.psiNs += t3 - t2
    p.amcNs += t4 - t2
    p.amcCalls += 1
    p.batches += rf.batches
    if (rf.batches == tau) p.capped += 1
    p.walks += rf.walks
    // Rebuild the batch sizes (η₁·2^(i−1)) to split steps by engine path.
    if (psi > 0) {
      val etaS = Amc.etaStar(psi, w.eps, tau, delta)
      var eta = (etaS + (1L << (tau - 1)) - 1) / (1L << (tau - 1))
      var b = 0
      while (b < rf.batches) {
        val batchSteps = 2L * eta * ellF
        p.steps += batchSteps
        p.rebuiltWalks += 2L * eta
        if (batchSteps > l.engine.localStepThreshold) { p.sparkSteps += batchSteps; p.sparkBatches += 1 }
        eta *= 2
        b += 1
      }
    }
    rf.estimate + st.rB
  }

  def run(spark: SparkSession, a: Args): Result = {
    val w = a.workload
    val listener = new SchedulerListener
    spark.sparkContext.addSparkListener(listener)
    val l = load(spark, w)
    header(spark, w, l)

    warmUp(w, l, a.seed)
    val queries = stream(w, l.g, a.seed)

    val n = w.traced
    def pairOf(q: Int): (Int, Int) = queries(q % queries.length)
    def seedOf(q: Int): Long = {
      val (s, t) = pairOf(q)
      Rng.derive(passSeed(a.seed, q / queries.length), (s.toLong << 32) | t)
    }
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val me = Thread.currentThread().getId
    val gcBeans = ManagementFactory.getGarbageCollectorMXBeans
    def gcMs: Long = { var s = 0L; gcBeans.forEach(b => s += math.max(b.getCollectionTime, 0L)); s }
    val sc = spark.sparkContext

    // Untraced reference pass: the public estimators, timed per query. The
    // traced pass follows it rather than alternating with it, so it does not
    // reuse the cache lines that the identical untraced walks just touched.
    sc.setJobGroup("untraced", "untraced queries")
    val ref = new Array[Double](n)
    val refWalks = new Array[Long](n)
    val refBatches = new Array[Int](n)
    val refIters = new Array[Int](n)
    var untracedNs = 0L
    var q = 0
    while (q < n) {
      val (s, t) = pairOf(q)
      val r = estimator(l, passSeed(a.seed, q / queries.length)).query(s, t, w.eps)
      untracedNs += r.nanos
      ref(q) = r.estimate; refWalks(q) = r.walks; refBatches(q) = r.batches; refIters(q) = r.smmIters
      q += 1
    }

    /** One traced pass; returns it with the caller thread's GC ms and bytes allocated. */
    def tracedPass(group: String): (Pass, Long, Long) = {
      sc.setJobGroup(group, "traced queries")
      val p = new Pass
      val gc0 = gcMs
      val alloc0 = threads.getThreadAllocatedBytes(me)
      var i = 0
      while (i < n) {
        val (s, t) = pairOf(i)
        p.estimates += query(w, l, s, t, seedOf(i), p)
        i += 1
      }
      (p, gcMs - gc0, threads.getThreadAllocatedBytes(me) - alloc0)
    }
    val (p, gc, alloc) = tracedPass(SchedulerListener.group)
    if (!listener.awaitJobs(p.sparkBatches))
      println(s"check spark_jobs listener=${listener.jobs} expected=${p.sparkBatches} timed out")
    val jobs = listener.snapshot
    // A second traced pass with the same seeds: its counts must repeat.
    val (p2, _, _) = tracedPass("repeat")
    sc.clearJobGroup()

    // Checks: traced answers equal the untraced ones, counts repeat exactly,
    // answers are within ε of the truth.
    var ok = true
    def check(name: String, pass: Boolean, detail: => String): Unit =
      if (!pass) { ok = false; println(s"check $name FAILED: $detail") }
    val (truth, truthMs) = truths(w, l.g, (0 until n).map(pairOf))
    var misses = 0
    q = 0
    while (q < n) {
      check("traced_vs_untraced", math.abs(p.estimates(q) - ref(q)) <= 1e-9,
        s"query $q: ${p.estimates(q)} vs ${ref(q)}")
      if (!(math.abs(ref(q) - truth(pairOf(q))) <= w.eps)) misses += 1
      q += 1
    }
    check("walks", p.walks == refWalks.sum, s"${p.walks} vs ${refWalks.sum}")
    check("batches", p.batches == refBatches.map(_.toLong).sum, s"${p.batches} vs ${refBatches.sum}")
    check("smm_iters", p.smmIters == refIters.map(_.toLong).sum, s"${p.smmIters} vs ${refIters.sum}")
    check("spark_jobs", jobs.jobs == p.sparkBatches, s"${jobs.jobs} vs ${p.sparkBatches}")
    check("batch_rebuild", p.rebuiltWalks == p.walks, s"${p.rebuiltWalks} vs ${p.walks}")
    p.counts.zip(p2.counts).foreach { case ((k, v1), (_, v2)) =>
      check(s"determinism.$k", v1 == v2, s"$v1 vs $v2")
    }
    println(s"counts ${p.counts.map { case (k, v) => s"$k=$v" }.mkString(" ")}")

    val nq = n.toDouble
    val layerNs = p.ellNs + p.greedyNs + p.smmNs + p.amcNs
    val overheadMs = (layerNs - untracedNs) / 1e6 / nq
    println(f"accounting untraced_ms=${untracedNs / 1e6 / nq}%.4f layers_ms=${layerNs / 1e6 / nq}%.4f " +
      f"overhead_ms=$overheadMs%.4f")
    val cores = spark.sparkContext.defaultParallelism
    val walkNs = (p.amcNs - p.psiNs).toDouble
    def per(x: Double): Double = x / nq
    def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b
    val m = Seq(
      Metric("graph.build_s", l.buildNs / 1e9, "s"),
      Metric("graph.lambda_s", l.lambdaNs / 1e9, "s"),
      Metric("graph.lambda", l.lambda, "1"),
      Metric("graph.csr_bytes", 4.0 * (l.g.n + 1) + 8.0 * l.g.m, "bytes"),
      Metric("ell.mean", per(p.ell), "iters"),
      Metric("smm.iters", per(p.smmIters), "iters"),
      Metric("smm.edge_ops", per(p.smmEdgeOps), "count"),
      Metric("smm.ms", per(p.smmNs / 1e6), "ms"),
      Metric("smm.ns_per_edge", ratio(p.smmNs, p.smmEdgeOps), "ns"),
      Metric("greedy.tests", per(p.greedyTests), "count"),
      Metric("greedy.ms", per(p.greedyNs / 1e6), "ms"),
      Metric("amc.ms", per(p.amcNs / 1e6), "ms"),
      Metric("amc.psi_ms", per(p.psiNs / 1e6), "ms"),
      Metric("amc.batches", ratio(p.batches, p.amcCalls), "count"),
      Metric("amc.walks", per(p.walks), "count"),
      Metric("amc.cap_frac", ratio(p.capped, p.amcCalls), "ratio"),
      Metric("walk.steps", per(p.steps), "count"),
      Metric("walk.ns_per_step", ratio(walkNs, p.steps), "ns"),
      Metric("walk.spark_step_frac", ratio(p.sparkSteps, p.steps), "ratio"),
      Metric("spark.jobs", per(jobs.jobs), "count"),
      Metric("spark.job_ms", per(jobs.jobMs), "ms"),
      Metric("spark.task_busy_ms", per(jobs.taskBusyMs), "ms"),
      Metric("spark.core_util", ratio(jobs.taskBusyMs, jobs.jobMs * cores), "ratio"),
      Metric("spark.wait_ms", per(jobs.waitMs), "ms"),
      Metric("jvm.gc_ms", per(gc), "ms"),
      Metric("jvm.alloc_mb_per_query", per(alloc / 1048576.0), "MB"),
      Metric("truth.ms_per_pair", truthMs, "ms"),
      Metric("trace.untraced_ms", per(untracedNs / 1e6), "ms"),
      Metric("trace.overhead_ms", overheadMs, "ms"),
    )
    Result(correct = ok && misses <= delta * n, attempted = n, failed = misses, metrics = m)
  }
}
