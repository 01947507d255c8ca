package repro.core

import repro.graph.CsrGraph

/** Result of one ε-approximate PER query, with cost accounting used by the
  * benchmarks (walks actually simulated, AMC batches run, SMM iterations).
  */
final case class PerResult(
    estimate: Double,
    walks: Long = 0L,
    batches: Int = 0,
    smmIters: Int = 0,
    nanos: Long = 0L,
) {
  def millis: Double = nanos / 1e6
}

object PerResult {

  /** Fails with an `IllegalArgumentException` naming `s` or `t` unless both
    * are node ids of `g`.
    */
  def requireNodes(g: CsrGraph, s: Int, t: Int): Unit = {
    require(s >= 0 && s < g.n, s"query node s = $s is not a node id in [0, ${g.n})")
    require(t >= 0 && t < g.n, s"query node t = $t is not a node id in [0, ${g.n})")
  }
}

/** A named PER estimator — the common shape the benchmark harness drives.
  * Implementations capture the graph (and any preprocessing such as λ) at
  * construction time; `query` answers one pair at error threshold ε.
  */
trait PerEstimator {
  def name: String
  def query(s: Int, t: Int, eps: Double): PerResult

  /** Wraps `body` with wall-clock accounting. */
  protected final def timed(body: => PerResult): PerResult = {
    val t0 = System.nanoTime()
    val r = body
    r.copy(nanos = System.nanoTime() - t0)
  }
}
