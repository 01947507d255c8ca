package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphGen
import repro.util.Rng

class WalksSpec extends SparkSpec {

  private lazy val toy = GraphGen.toyFig2

  test("step moves to a neighbor") {
    val rng = Rng(1)
    (0 until 200).foreach { _ =>
      val v = rng.nextInt(toy.n)
      val w = Walks.step(toy, v, rng)
      assert(toy.hasEdge(v, w))
    }
  }

  test("endpoint of a length-0 walk is the start") {
    assert(Walks.endpoint(toy, 3, 0, Rng(2)) == 3)
  }

  test("walks are deterministic in the rng stream") {
    val a = Walks.endpoint(toy, 0, 10, Rng(42, 7))
    val b = Walks.endpoint(toy, 0, 10, Rng(42, 7))
    val c = Walks.endpoint(toy, 0, 10, Rng(42, 8))
    assert(a == b)
    // different stream gives an independent walk (may coincide by chance;
    // check over several streams that at least one differs)
    val ds = (0 until 20).map(i => Walks.endpoint(toy, 0, 10, Rng(42, 100 + i)))
    assert(ds.distinct.size > 1 || toy.n == 1)
    assert(c == Walks.endpoint(toy, 0, 10, Rng(42, 8)))
  }

  test("endpoint distribution matches P^i e_s (via SMM vectors)") {
    // Empirical endpoint frequencies of length-3 walks from s vs the exact
    // distribution p_3(s, ·) = row of P³, obtained from an SMM run on the
    // reversed vector identity p_i(s,v) = p_i(v,s) d(v)/d(s).
    val g = toy
    val s = 0
    val len = 3
    val st = new Smm.State(g, s, (s + 1) % g.n)
    (1 to len).foreach(_ => st.advance())
    val exact = Array.tabulate(g.n)(v => st.sStar(v) * g.degree(v) / g.degree(s))
    assert(math.abs(exact.sum - 1.0) < 1e-9)
    val nWalks = 200000
    val counts = new Array[Int](g.n)
    (0 until nWalks).foreach(k => counts(Walks.endpoint(g, s, len, Rng(7, k))) += 1)
    (0 until g.n).foreach { v =>
      assert(math.abs(counts(v).toDouble / nWalks - exact(v)) < 0.01,
        s"v=$v: ${counts(v).toDouble / nWalks} vs ${exact(v)}")
    }
  }

  test("walkSum over one-hot vectors counts visits") {
    val g = GraphGen.cycle(5)
    val sVec = Array(1.0, 0.0, 0.0, 0.0, 0.0)
    val tVec = new Array[Double](5)
    // walkSum with x = e_0: number of times the walk visits node 0 in
    // len steps; verify against a hand-stepped walk with the same stream.
    val seedRng = Rng(9, 3)
    val sum = Walks.walkSum(g, 2, 6, seedRng, Walks.score(sVec, tVec, 1.0, 1.0))
    val replay = Rng(9, 3)
    var cur = 2
    var visits = 0
    (0 until 6).foreach { _ =>
      cur = Walks.step(g, cur, replay)
      if (cur == 0) visits += 1
    }
    assert(sum == visits.toDouble)
  }

  test("zSample expectation approximates q(s,t) (Eq. 12/13)") {
    val g = toy
    val (s, t) = (0, 1)
    val ellF = 4
    val sVec = new Array[Double](g.n); sVec(s) = 1.0
    val tVec = new Array[Double](g.n); tVec(t) = 1.0
    val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
    // Exact q(s,t): r_ell − indicator correction (see Theorem 3.4 proof).
    val q = Smm.run(g, s, t, ellF) - (dsInv + dtInv)
    val n = 400000
    var acc = 0.0
    val x = Walks.score(sVec, tVec, dsInv, dtInv)
    (0 until n).foreach(k => acc += Walks.zSample(g, s, t, ellF, Rng(11, k), x))
    assert(math.abs(acc / n - q) < 0.01, s"${acc / n} vs $q")
  }

  test("fused zSample equals the two-coefficient form on random s*/t*") {
    val g = TestGraphs.ba300.g
    val rnd = new scala.util.Random(5)
    (0 until 20).foreach { trial =>
      val s = rnd.nextInt(g.n); val t = (s + 1 + rnd.nextInt(g.n - 1)) % g.n
      val sVec = Array.fill(g.n)(rnd.nextDouble())
      val tVec = Array.fill(g.n)(rnd.nextDouble())
      val dsInv = 1.0 / g.degree(s); val dtInv = 1.0 / g.degree(t)
      val x = Walks.score(sVec, tVec, dsInv, dtInv)
      // Each visited node scored as s(u)/d(s) − t(u)/d(t) on the s-walk and
      // with both coefficients negated on the t-walk, on the same stream.
      def twoCoef(start: Int, sCoef: Double, tCoef: Double, rng: Rng): Double = {
        var cur = start; var acc = 0.0
        (0 until 12).foreach { _ =>
          cur = Walks.step(g, cur, rng)
          acc += sVec(cur) * sCoef + tVec(cur) * tCoef
        }
        acc
      }
      val rng = Rng(21, trial)
      val expect = twoCoef(s, dsInv, -dtInv, rng) + twoCoef(t, -dsInv, dtInv, rng)
      val fused = Walks.zSample(g, s, t, 12, Rng(21, trial), x)
      assert(math.abs(fused - expect) <= 1e-12, s"trial $trial: $fused vs $expect")
    }
  }

  /** A batch above the pool grain, with samples of uneven cost and value. */
  private def pooledBatch = {
    val g = TestGraphs.ba300.g
    val x = Array.tabulate(g.n)(u => math.sin(u.toDouble))
    val len = 40
    val count = 3 * WalkEngine.PoolGrain / len + 17
    assert(count * len > WalkEngine.PoolGrain)
    def sample(rng: Rng): Double = Walks.walkSum(g, rng.nextInt(g.n), len, rng, x)
    (g, count, len, sample _)
  }

  test("pooled batches are bit-identical across repeated calls") {
    val (g, count, len, sample) = pooledBatch
    val eng = new WalkEngine(spark, g)
    val first = eng.sumAndSumSq(count, seed = 3, stepsPerSample = len)(sample)
    (0 until 5).foreach(_ => assert(eng.sumAndSumSq(count, seed = 3, stepsPerSample = len)(sample) == first))
    def vecSample(rng: Rng, acc: Array[Double]): Unit = {
      val z = sample(rng)
      acc(0) += z; acc(1) += z * z; acc(2) += 1.0
    }
    val vec = eng.sumVec(count, seed = 3, dim = 3, stepsPerSample = len)(vecSample)
    (0 until 5).foreach(_ => assert(eng.sumVec(count, seed = 3, dim = 3, stepsPerSample = len)(vecSample).toSeq == vec.toSeq))
    assert(vec.toSeq == Seq(first._1, first._2, count.toDouble))
  }

  test("pooled batches equal the chunk-ordered reference sum") {
    val (g, count, len, sample) = pooledBatch
    val eng = new WalkEngine(spark, g)
    // Documented chunking: C = min(count, Chunks) chunks, chunk c covers
    // [c·count/C, (c+1)·count/C); partials are added in chunk order.
    val nc = math.min(count, WalkEngine.Chunks.toLong)
    var s = 0.0; var s2 = 0.0
    (0L until nc).foreach { c =>
      var ps = 0.0; var ps2 = 0.0
      (c * count / nc until (c + 1) * count / nc).foreach { k =>
        val z = sample(Rng(9, k))
        ps += z; ps2 += z * z
      }
      s += ps; s2 += ps2
    }
    assert(eng.sumAndSumSq(count, seed = 9, stepsPerSample = len)(sample) == ((s, s2)))
    val vec = eng.sumVec(count, seed = 9, dim = 1, stepsPerSample = len) { (rng, acc) =>
      acc(0) += sample(rng)
    }
    assert(vec.toSeq == Seq(s))
  }

  test("engine respects count: sums scale linearly-ish") {
    val g = TestGraphs.complete10.g
    val eng = new WalkEngine(spark, g)
    val (one, _) = eng.sumAndSumSq(1000, 3, 1)(_ => 1.0)
    assert(one == 1000.0)
    // Every sample lands in exactly one of three bins.
    val bins = eng.sumVec(3000, seed = 17, dim = 3, stepsPerSample = 4) { (rng, acc) =>
      acc(Walks.endpoint(g, 1, 4, rng) % 3) += 1.0
    }
    assert(bins.sum == 3000.0)
  }
}
