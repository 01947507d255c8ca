package repro.graph

/** Spectral preprocessing: estimates `λ = max{|λ₂|, |λ_n|}` of the
  * transition matrix `P = D⁻¹A` (the quantity both ℓ formulas need,
  * §3.1 — the paper computes it once per graph with ARPACK).
  *
  * `P` is similar to the symmetric `N = D^{-1/2} A D^{-1/2}` (same
  * eigenvalues), whose top eigenvector is `u₁(v) ∝ √d(v)`. We run power
  * iteration on `N²` (so mixed-sign eigenvalues cannot cause oscillation)
  * with `u₁` deflated out each step; the dominant remaining eigenvalue of
  * `N²` is `λ²`. This is our stand-in for the Implicitly Restarted Arnoldi
  * Method: both reduce to repeated sparse matrix–vector products, O(m) per
  * step.
  */
object Spectral {

  /** Deterministic (fixed start vector).
    *
    * @param tol     convergence tolerance on successive λ estimates
    * @param maxIter cap on the number of N² applications
    */
  def lambda(g: CsrGraph, tol: Double = 1e-10, maxIter: Int = 5000): Double = {
    val n = g.n
    require(n >= 2, "need at least 2 nodes")
    val sqrtDeg = Array.tabulate(n)(v => math.sqrt(g.degree(v).toDouble))
    // u1 normalized: u1(v) = sqrt(d(v)) / sqrt(2m)
    val u1 = {
      val norm = math.sqrt(2.0 * g.m)
      Array.tabulate(n)(v => sqrtDeg(v) / norm)
    }
    // Start vector: deterministic pseudo-random, deflated.
    var x = Array.tabulate(n) { v =>
      val r = repro.util.Rng(0xE1EC7B1CL, v.toLong).nextDouble() - 0.5
      r
    }
    deflate(x, u1); normalize(x)

    var est = 0.0
    var prev = -1.0
    var it = 0
    while (it < maxIter && math.abs(est - prev) > tol) {
      prev = est
      val y = applyN(g, sqrtDeg, applyN(g, sqrtDeg, x))
      deflate(y, u1)
      val norm = math.sqrt(y.map(v => v * v).sum)
      if (norm < 1e-300) return 0.0 // no residual spectrum (e.g. K_2)
      est = norm // ||N² x|| / ||x|| with ||x|| = 1 -> converges to λ²
      var i = 0
      while (i < n) { y(i) /= norm; i += 1 }
      x = y
      it += 1
    }
    math.min(math.sqrt(math.max(est, 0.0)), 1.0 - 1e-12)
  }

  /** `y = N x` with `N = D^{-1/2} A D^{-1/2}`. */
  private def applyN(g: CsrGraph, sqrtDeg: Array[Double], x: Array[Double]): Array[Double] = {
    val n = g.n
    val y = new Array[Double](n)
    var v = 0
    while (v < n) {
      var acc = 0.0
      var i = g.offsets(v)
      while (i < g.offsets(v + 1)) {
        val u = g.neighbors(i)
        acc += x(u) / sqrtDeg(u)
        i += 1
      }
      y(v) = acc / sqrtDeg(v)
      v += 1
    }
    y
  }

  private def deflate(x: Array[Double], u1: Array[Double]): Unit = {
    var dot = 0.0
    var i = 0
    while (i < x.length) { dot += x(i) * u1(i); i += 1 }
    i = 0
    while (i < x.length) { x(i) -= dot * u1(i); i += 1 }
  }

  private def normalize(x: Array[Double]): Unit = {
    val norm = math.sqrt(x.map(v => v * v).sum)
    if (norm > 0) {
      var i = 0
      while (i < x.length) { x(i) /= norm; i += 1 }
    }
  }
}
