package repro.baselines

import scala.collection.mutable

import repro.core.{Ell, PerEstimator, PerResult, Walks}
import repro.graph.CsrGraph
import repro.util.Rng

/** TPC (Peng et al. 2021) — TP with walk stitching.
  *
  * Views `p_i(u,v)` as a collision probability of two half-length walks:
  * with `a = ⌈i/2⌉`, `b = ⌊i/2⌋` and reversibility
  * (`p_b(w,v) = p_b(v,w) d(w)/d(v)`),
  * `p_i(u,v) = Σ_w p_a(u,w) p_b(w,v) = Σ_w p_a(u,w) p_b(v,w) d(w)/d(v)`,
  * estimated from endpoint-count collisions of two independent walk sets.
  *
  * The paper notes TPC's required `β_i` (a bound on
  * `Σ_v p_i(·,v)²/d(v)`) is "unknown and hard to estimate" and that its
  * own evaluation used heuristic settings; [49]'s exact heuristic is not
  * published in the text, so ours is
  * `β_i = min(1, 1/(2m) + λ^i / min(d(s), d(t)))` — the stationary floor
  * `1/(2m)` (the i → ∞ limit of the bounded sum) plus a geometrically
  * decaying transient. Walk counts follow the paper's formula
  * `40000 (ℓ√(ℓβ_i)/ε + ℓ³β_i^{3/2}/ε²)`, scaled by `scale` as with TP.
  */
final class TpcEstimator(g: CsrGraph, lambda: Double, delta: Double,
                         seed: Long, scale: Double = 1.0,
                         minWalks: Long = 100L, maxWalksPerLen: Long = 5_000_000L)
    extends PerEstimator {
  val name = "TPC"

  def query(s: Int, t: Int, eps: Double): PerResult = timed {
    PerResult.requireNodes(g, s, t)
    if (s == t) PerResult(0.0)
    else {
      val ell = Ell.peng(eps, lambda)
      val ds = g.degree(s); val dt = g.degree(t)
      var r = 1.0 / ds + 1.0 / dt
      var walks = 0L
      var i = 1
      while (i <= ell) {
        val beta = math.min(1.0,
          1.0 / (2.0 * g.m) + math.pow(lambda, i) / math.min(ds, dt))
        val etaFaithful = 40000.0 *
          (ell * math.sqrt(ell * beta) / eps + math.pow(ell, 3) * math.pow(beta, 1.5) / (eps * eps))
        val eta = math.min(maxWalksPerLen,
          math.max(minWalks, math.ceil(etaFaithful * scale).toLong))
        val a = (i + 1) / 2
        val b = i / 2
        // Independent endpoint-count sets: from s and t at lengths a and b.
        val csA = endpointCounts(s, a, eta, Rng.derive(seed, 4L * i))
        val csB = if (b == 0) null else endpointCounts(s, b, eta, Rng.derive(seed, 4L * i + 1))
        val ctA = endpointCounts(t, a, eta, Rng.derive(seed, 4L * i + 2))
        val ctB = if (b == 0) null else endpointCounts(t, b, eta, Rng.derive(seed, 4L * i + 3))
        walks += (if (b == 0) 2L else 4L) * eta

        // p̂_i(u,v) = Σ_w (cU_a(w)/η)(cV_b(w)/η) d(w)/d(v); for b = 0 the
        // second walk set degenerates to the point mass at its source.
        def pHat(cA: mutable.LongMap[Long], cB: mutable.LongMap[Long],
                 bSrc: Int, v: Int): Double = {
          var acc = 0.0
          if (cB == null) {
            acc = cA.getOrElse(bSrc.toLong, 0L).toDouble * g.degree(bSrc) / eta
          } else {
            cA.foreachEntry { (w, ca) =>
              val cb = cB.getOrElse(w, 0L)
              if (cb != 0L)
                acc += ca.toDouble * cb * g.degree(w.toInt) / (eta.toDouble * eta)
            }
          }
          acc / g.degree(v)
        }

        val piSS = pHat(csA, csB, s, s)
        val piTT = pHat(ctA, ctB, t, t)
        val piST = pHat(csA, ctB, t, t) // from-s length a stitched with from-t length b
        val piTS = pHat(ctA, csB, s, s)
        r += piSS / ds + piTT / dt - piST / dt - piTS / ds
        i += 1
      }
      PerResult(r, walks = walks)
    }
  }

  /** Endpoint histogram of `eta` length-`len` walks from `start`. Local
    * loop — TPC is a baseline whose cost profile is the point being shown.
    */
  private def endpointCounts(start: Int, len: Int, eta: Long,
                             batchSeed: Long): mutable.LongMap[Long] = {
    val counts = mutable.LongMap.empty[Long]
    var k = 0L
    while (k < eta) {
      val end = Walks.endpoint(g, start, len, Rng(batchSeed, k))
      counts(end.toLong) = counts.getOrElse(end.toLong, 0L) + 1L
      k += 1
    }
    counts
  }
}
