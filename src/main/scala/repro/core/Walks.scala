package repro.core

import java.util.concurrent.{ForkJoinPool, ForkJoinTask, RecursiveAction}

import org.apache.spark.sql.SparkSession
import repro.graph.CsrGraph
import repro.util.Rng

/** Monte Carlo fan-out engine.
  *
  * All randomized estimators (AMC, TP, TPC, MC, MC2, HAY) reduce to "draw
  * `count` i.i.d. samples, each a deterministic function of a [[Rng]]
  * stream, and sum them". Sample `k` always uses the stream `Rng(seed, k)`.
  *
  * Both sums are one chunked reduction in the calling JVM. It splits
  * samples `0 until count` into `C = min(count, WalkEngine.Chunks)`
  * chunks; chunk `c` covers `[c·count/C, (c+1)·count/C)`, and its partial
  * sum is added to the total in chunk order. A batch of up to
  * [[WalkEngine.PoolGrain]] (2^13^) expected steps runs its chunks one
  * after another on the caller thread; a larger one runs them on
  * [[WalkEngine]]'s shared ForkJoin pool, one thread per core. The
  * boundaries depend only on `count`, so the inline and the pooled runs
  * give the same bits, on any number of cores.
  *
  * The pool beat the inline run from 2^12^ steps on youtube-lite (2^10^ on
  * orkut-lite, 4 cores); [[WalkEngine.PoolGrain]] sits one doubling above
  * that. A Spark job over the same batches, swept from 2^18^ to 2^36.6^
  * steps per batch on the same cores, never ran reliably faster than the
  * pool, so batches never leave this JVM.
  *
  * Neither constructor argument is read: samples close over the graph they
  * walk. Both stay so that existing callers construct the engine as before.
  */
final class WalkEngine(spark: SparkSession, g: CsrGraph) {

  /** Always `Long.MaxValue`: no batch leaves this JVM. It exists only
    * because the benchmark in `perfbench/` reads it to count steps on the
    * Spark path, which this value makes "never".
    */
  val localStepThreshold: Long = Long.MaxValue

  /** Σ f and Σ f² of `count` samples; `stepsPerSample` is a cost hint that
    * decides between the inline and the pooled run.
    *
    * `sample` runs concurrently on several pool threads, so it may write
    * only values it allocates itself.
    */
  def sumAndSumSq(count: Long, seed: Long, stepsPerSample: Long)
                 (sample: Rng => Double): (Double, Double) = {
    val r = WalkEngine.reduceChunks(count, count * math.max(stepsPerSample, 1L), 2) { (lo, hi, acc) =>
      var s = 0.0; var s2 = 0.0
      var k = lo
      while (k < hi) {
        val z = sample(Rng(seed, k))
        s += z; s2 += z * z
        k += 1
      }
      acc(0) = s; acc(1) = s2
    }
    (r(0), r(1))
  }

  /** Element-wise sum of `count` sampled vectors of dimension `dim`;
    * `sample` accumulates its contribution into the passed array (one per
    * chunk, reused across its samples to avoid per-sample allocation).
    *
    * `sample` runs concurrently on several pool threads, so it may write
    * only the passed array and values it allocates itself.
    */
  def sumVec(count: Long, seed: Long, dim: Int, stepsPerSample: Long)
            (sample: (Rng, Array[Double]) => Unit): Array[Double] =
    WalkEngine.reduceChunks(count, count * math.max(stepsPerSample, 1L), dim) { (lo, hi, acc) =>
      var k = lo
      while (k < hi) { sample(Rng(seed, k), acc); k += 1 }
    }
}

object WalkEngine {

  /** Most chunks a batch is split into. */
  final val Chunks = 64

  /** Expected walk steps of a batch above which its chunks run on [[pool]]. */
  final val PoolGrain = 1L << 13

  /** Daemon work-stealing pool shared by all engines, one thread per core. */
  private lazy val pool = new ForkJoinPool(Runtime.getRuntime.availableProcessors)

  /** The reduction behind both sums, for a batch of `work` expected
    * steps. `chunk(lo, hi, acc)` adds samples `lo until hi` into the zeroed
    * `width`-long `acc`; the result is the element-wise sum of the chunks'
    * `acc`s, added in chunk order.
    */
  private def reduceChunks(count: Long, work: Long, width: Int)
                          (chunk: (Long, Long, Array[Double]) => Unit): Array[Double] = {
    val nc = math.max(0L, math.min(count, Chunks.toLong)).toInt
    val parts = Array.ofDim[Double](nc, width)
    def run(c: Int): Unit = chunk(c * count / nc, (c + 1) * count / nc, parts(c))
    if (work <= PoolGrain) {
      var c = 0
      while (c < nc) { run(c); c += 1 }
    } else pool.invoke(new ChunkRange(0, nc, run))
    val total = new Array[Double](width)
    var c = 0
    while (c < nc) {
      val p = parts(c)
      var i = 0
      while (i < width) { total(i) += p(i); i += 1 }
      c += 1
    }
    total
  }

  /** Runs `run(c)` for every chunk `c` in `[lo, hi)`, splitting in halves. */
  private final class ChunkRange(lo: Int, hi: Int, run: Int => Unit) extends RecursiveAction {
    def compute(): Unit =
      if (hi - lo == 1) run(lo)
      else {
        val mid = (lo + hi) >>> 1
        ForkJoinTask.invokeAll(new ChunkRange(lo, mid, run), new ChunkRange(mid, hi, run))
      }
  }
}

object Walks {

  /** Advances one random-walk step from `cur`. */
  @inline def step(g: CsrGraph, cur: Int, rng: Rng): Int =
    g.neighbor(cur, rng.nextInt(g.degree(cur)))

  /** Runs a length-`len` walk from `start`, returning the endpoint. */
  def endpoint(g: CsrGraph, start: Int, len: Int, rng: Rng): Int = {
    var cur = start
    var i = 0
    while (i < len) { cur = step(g, cur, rng); i += 1 }
    cur
  }

  /** Walk-sum `Σ_{w ∈ W} x(w)` over the `len` *visited* nodes of a walk
    * from `start` (start excluded — Eq. 11 / Lemma 3.3 count positions
    * `w₁..w_ℓf`).
    */
  def walkSum(g: CsrGraph, start: Int, len: Int, rng: Rng, x: Array[Double]): Double = {
    var cur = start
    var acc = 0.0
    var i = 0
    while (i < len) {
      cur = step(g, cur, rng)
      acc += x(cur)
      i += 1
    }
    acc
  }

  /** The per-node score `x(u) = s(u)/d(s) − t(u)/d(t)` of the AMC random
    * variable, given `dsInv = 1/d(s)` and `dtInv = 1/d(t)`.
    */
  def score(sVec: Array[Double], tVec: Array[Double], dsInv: Double, dtInv: Double): Array[Double] = {
    val x = new Array[Double](sVec.length)
    var u = 0
    while (u < x.length) { x(u) = sVec(u) * dsInv - tVec(u) * dtInv; u += 1 }
    x
  }

  /** The AMC random variable `Z_k` of Eq. (11): a walk from `s` scored by
    * `x` (see [[score]]) plus a walk from `t` scored by `−x`. The two walks
    * take consecutive draws of the one stream `rng`, the `s`-walk first.
    */
  def zSample(g: CsrGraph, s: Int, t: Int, len: Int, rng: Rng, x: Array[Double]): Double = {
    val fromS = walkSum(g, s, len, rng, x)
    val fromT = walkSum(g, t, len, rng, x)
    fromS - fromT
  }
}
