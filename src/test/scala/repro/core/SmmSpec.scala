package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.GraphGen

class SmmSpec extends AnyFunSuite {

  test("State initial value is the i=0 term") {
    val g = GraphGen.toyFig2
    val st = new Smm.State(g, 0, 1)
    assert(math.abs(st.rB - (1.0 / g.degree(0) + 1.0 / g.degree(1))) < 1e-12)
    assert(st.iters == 0)
  }

  test("vectors track p_i(v, s): after one step s*(v) = 1/d(v) for v ~ s") {
    val g = GraphGen.toyFig2
    val st = new Smm.State(g, 0, 1)
    st.advance()
    (0 until g.n).foreach { v =>
      val expect = if (g.hasEdge(v, 0)) 1.0 / g.degree(v) else 0.0
      assert(math.abs(st.sStar(v) - expect) < 1e-12, s"v=$v")
    }
  }

  test("vectors stay probability-like: entries in [0,1]") {
    val g = TestGraphs.ba300.g
    val st = new Smm.State(g, 3, 77)
    (1 to 10).foreach { _ =>
      st.advance()
      st.sStar.foreach(x => assert(x >= -1e-15 && x <= 1.0 + 1e-12))
      st.tStar.foreach(x => assert(x >= -1e-15 && x <= 1.0 + 1e-12))
    }
  }

  test("s* converges to the reversed-stationary value d(s)-independent limit") {
    // s*(v) = p_i(v, s) → π(s) = d(s)/2m for every v (ergodic limit).
    val g = GraphGen.complete(10)
    val st = new Smm.State(g, 0, 5)
    (1 to 60).foreach(_ => st.advance())
    val expect = g.degree(0) / (2.0 * g.m)
    (0 until g.n).foreach(v => assert(math.abs(st.sStar(v) - expect) < 1e-9, s"v=$v"))
  }

  test("frontier grows monotonically and saturates at 2m-ish cost") {
    val g = TestGraphs.ba300.g
    val st = new Smm.State(g, 0, 1)
    var last = st.frontierCost
    assert(last == g.degree(0) + g.degree(1))
    var grew = false
    (1 to 8).foreach { _ =>
      st.advance()
      val c = st.frontierCost
      assert(c >= last, "frontier cost must not shrink on a connected graph")
      if (c > last) grew = true
      last = c
    }
    assert(grew)
    assert(last <= 4L * g.m)
  }

  test("run matches truncated series computed from dense matrix powers") {
    val g = GraphGen.toyFig2
    val n = g.n
    val (s, t) = (0, 1)
    // Dense reference: P as a matrix, accumulate Eq. (4) directly.
    val p = Array.tabulate(n, n)((i, j) => if (g.hasEdge(i, j)) 1.0 / g.degree(i) else 0.0)
    var es = Array.tabulate(n)(v => if (v == s) 1.0 else 0.0)
    var et = Array.tabulate(n)(v => if (v == t) 1.0 else 0.0)
    def mul(x: Array[Double]) =
      Array.tabulate(n)(i => (0 until n).map(j => p(i)(j) * x(j)).sum)
    var expect = 1.0 / g.degree(s) + 1.0 / g.degree(t)
    (1 to 7).foreach { i =>
      es = mul(es); et = mul(et)
      expect += es(s) / g.degree(s) + et(t) / g.degree(t) -
                es(t) / g.degree(s) - et(s) / g.degree(t)
      assert(math.abs(Smm.run(g, s, t, i) - expect) < 1e-10, s"ell_b=$i")
    }
  }

  test("run with 0 iterations returns the i=0 term") {
    val g = GraphGen.toyFig2
    assert(math.abs(Smm.run(g, 0, 1, 0) - (1.0 / 2 + 1.0 / 7)) < 1e-12)
  }

  test("run converges to exact ER as ell_b grows") {
    Seq(TestGraphs.toy, TestGraphs.complete10, TestGraphs.cycle9, TestGraphs.barbell8).foreach { f =>
      TestGraphs.pairs(f.g, 4).foreach { case (s, t) =>
        val approx = Smm.groundTruth(f.g, s, t, iters = 2000)
        assert(math.abs(approx - f.exactEr(s, t)) < 1e-5,
          s"${f.name} ($s,$t): $approx vs ${f.exactEr(s, t)}")
      }
    }
  }

  test("groundTruth on larger analog agrees with pinv-based exact") {
    val f = TestGraphs.ba500dense
    TestGraphs.pairs(f.g, 3).foreach { case (s, t) =>
      assert(math.abs(Smm.groundTruth(f.g, s, t) - f.exactEr(s, t)) < 1e-6)
    }
  }

  test("s = t returns 0") {
    assert(Smm.run(GraphGen.toyFig2, 4, 4, 10) == 0.0)
  }

  test("truncation residual shrinks as ell_b grows") {
    val f = TestGraphs.er200
    val (s, t) = TestGraphs.pairs(f.g, 1).head
    val exact = f.exactEr(s, t)
    val errs = Seq(2, 6, 12, 24).map(l => math.abs(exact - Smm.run(f.g, s, t, l)))
    assert(errs.zip(errs.tail).forall { case (a, b) => b <= a + 1e-12 },
      s"residuals not decreasing: $errs")
  }
}
