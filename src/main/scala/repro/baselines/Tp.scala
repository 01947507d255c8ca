package repro.baselines

import repro.core.{Ell, PerEstimator, PerResult, WalkEngine, Walks}
import repro.graph.CsrGraph
import repro.util.Rng

/** TP (Peng et al. 2021) — the state-of-the-art competitor.
  *
  * Estimates each `p_i(s,s), p_i(t,t), p_i(s,t), p_i(t,s)` for
  * `i ∈ [1, ℓ]` (Peng's generic ℓ, Eq. 5) by independent length-`i`
  * random walks and sums them per Eq. (4). The faithful sample count is
  * `η = 40 ℓ² ln(8ℓ/δ) / ε²` walks per length and per source — the huge
  * constant is precisely the paper's critique of TP.
  *
  * @param scale multiplier (≤ 1) on the faithful η with a floor of
  *              `minWalks`; benchmarks down-scale TP where the faithful
  *              count would run for hours (recorded per table in
  *              EXPERIMENTS.md, mirroring the paper's one-day cutoff).
  */
final class TpEstimator(g: CsrGraph, lambda: Double, delta: Double,
                        engine: WalkEngine, seed: Long,
                        scale: Double = 1.0, minWalks: Long = 100L,
                        maxWalksPerLen: Long = Long.MaxValue) extends PerEstimator {
  val name = "TP"

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    PerResult.requireNodes(g, s, t)
    if (s == t) PerResult(0.0)
    else {
      val ell = Ell.peng(eps, lambda)
      val etaFaithful = 40.0 * ell * ell * math.log(8.0 * ell / delta) / (eps * eps)
      val eta = math.min(maxWalksPerLen,
        math.max(minWalks, math.ceil(etaFaithful * scale).toLong))
      val ds = g.degree(s); val dt = g.degree(t)
      var r = 1.0 / ds + 1.0 / dt // i = 0 terms (s != t)
      var walks = 0L
      var i = 1
      while (i <= ell) {
        val fs = endpointHits(s, t, s, i, eta, Rng.derive(seed, 2L * i))
        val ft = endpointHits(s, t, t, i, eta, Rng.derive(seed, 2L * i + 1))
        val piSS = fs(0) / eta; val piST = fs(1) / eta
        val piTS = ft(0) / eta; val piTT = ft(1) / eta
        r += piSS / ds + piTT / dt - piST / dt - piTS / ds
        walks += 2L * eta
        i += 1
      }
      PerResult(r, walks = walks)
    }
  }

  /** Σ over `eta` length-`len` walks from `start` of the endpoint
    * indicators `[end == s, end == t]`.
    */
  private def endpointHits(s: Int, t: Int, start: Int, len: Int,
                           eta: Long, batchSeed: Long): Array[Double] =
    engine.sumVec(eta, batchSeed, dim = 2, stepsPerSample = len) { (rng, acc) =>
      val end = Walks.endpoint(g, start, len, rng)
      if (end == s) acc(0) += 1.0
      if (end == t) acc(1) += 1.0
    }
}
