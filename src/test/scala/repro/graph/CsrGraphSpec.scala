package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSamples

class CsrGraphSpec extends AnyFunSuite with PropSamples {

  private val triangle = CsrGraph.fromEdges(3, Seq((0, 1), (1, 2), (2, 0)))

  test("triangle: n, m, degrees") {
    assert(triangle.n == 3)
    assert(triangle.m == 3)
    (0 until 3).foreach(v => assert(triangle.degree(v) == 2))
  }

  test("triangle: adjacency") {
    assert(triangle.hasEdge(0, 1) && triangle.hasEdge(1, 0))
    assert(triangle.hasEdge(1, 2) && triangle.hasEdge(2, 1))
    assert(triangle.hasEdge(0, 2))
  }

  test("duplicate edges collapse") {
    val g = CsrGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1), (1, 2), (2, 0)))
    assert(g.m == 3)
    assert(g.degree(0) == 2)
  }

  test("self-loops are dropped") {
    val g = CsrGraph.fromEdges(3, Seq((0, 0), (0, 1), (1, 2), (2, 2), (2, 0)))
    assert(g.m == 3)
    assert(!g.hasEdge(0, 0) && !g.hasEdge(2, 2))
  }

  test("edge orientation is irrelevant") {
    val a = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3)))
    val b = CsrGraph.fromEdges(4, Seq((1, 0), (2, 1), (3, 2)))
    assert(a.neighbors.toSeq == b.neighbors.toSeq)
    assert(a.offsets.toSeq == b.offsets.toSeq)
  }

  test("neighbor lists are sorted") {
    val g = CsrGraph.fromEdges(5, Seq((2, 4), (2, 0), (2, 3), (2, 1)))
    assert(g.neighborsOf(2).toSeq == Seq(0, 1, 3, 4))
  }

  test("neighbor(v, i) indexes the sorted list") {
    val g = CsrGraph.fromEdges(5, Seq((2, 4), (2, 0), (2, 3)))
    assert(g.neighbor(2, 0) == 0 && g.neighbor(2, 1) == 3 && g.neighbor(2, 2) == 4)
  }

  test("out-of-range node id rejected") {
    intercept[IllegalArgumentException](CsrGraph.fromEdges(3, Seq((0, 3))))
    intercept[IllegalArgumentException](CsrGraph.fromEdges(3, Seq((-1, 0))))
  }

  test("empty node set rejected") {
    intercept[IllegalArgumentException](CsrGraph.fromEdges(0, Seq.empty))
  }

  test("undirectedEdges emits each edge once with src < dst") {
    val edges = triangle.undirectedEdges.toSeq
    assert(edges.sorted == Seq((0, 1), (0, 2), (1, 2)))
    // Rebuilding from the edge list reproduces the CSR arrays.
    val toy = GraphGen.toyFig2
    val back = CsrGraph.fromEdges(toy.n, toy.undirectedEdges.toSeq)
    assert(back.offsets.toSeq == toy.offsets.toSeq)
    assert(back.neighbors.toSeq == toy.neighbors.toSeq)
  }

  test("connectivity: path is connected, two components are not") {
    assert(GraphGen.path(10).isConnected)
    val split = CsrGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    assert(!split.isConnected)
  }

  test("isolated node makes graph disconnected") {
    val g = CsrGraph.fromEdges(4, Seq((0, 1), (1, 2)))
    assert(!g.isConnected)
  }

  test("bipartite detection: even cycle yes, odd cycle no") {
    assert(GraphGen.cycle(8).isBipartite)
    assert(!GraphGen.cycle(9).isBipartite)
  }

  test("bipartite detection: path and star are bipartite") {
    assert(GraphGen.path(7).isBipartite)
    assert(GraphGen.star(6).isBipartite)
  }

  test("bipartite detection: complete graph (n >= 3) is not") {
    assert(!GraphGen.complete(5).isBipartite)
  }

  test("requireErgodic accepts odd cycle, rejects even cycle") {
    GraphGen.cycle(9).requireErgodic()
    intercept[IllegalArgumentException](GraphGen.cycle(8).requireErgodic())
  }

  test("requireErgodic rejects disconnected graph") {
    val split = CsrGraph.fromEdges(4, Seq((0, 1), (2, 3)))
    intercept[IllegalArgumentException](split.requireErgodic())
  }

  test("avgDegree") {
    assert(math.abs(triangle.avgDegree - 2.0) < 1e-12)
    assert(math.abs(GraphGen.star(5).avgDegree - 8.0 / 5) < 1e-12)
  }

  test("property: sum of degrees equals 2m") {
    val genEdges = for {
      n <- Gen.choose(2, 40)
      k <- Gen.choose(1, 80)
      es <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    } yield (n, es)
    forAllSamples(genEdges, 40) { case (n, es) =>
      val g = CsrGraph.fromEdges(n, es)
      assert((0 until n).map(g.degree(_).toLong).sum == 2 * g.m)
    }
  }

  test("property: hasEdge is symmetric and matches neighbor lists") {
    val genEdges = for {
      n <- Gen.choose(2, 30)
      k <- Gen.choose(1, 60)
      es <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    } yield (n, es)
    forAllSamples(genEdges, 40) { case (n, es) =>
      val g = CsrGraph.fromEdges(n, es)
      for (u <- 0 until n; v <- 0 until n) {
        assert(g.hasEdge(u, v) == g.hasEdge(v, u))
        assert(g.hasEdge(u, v) == g.neighborsOf(u).contains(v))
      }
    }
  }

  test("property: no self-loops survive construction") {
    val genEdges = for {
      n <- Gen.choose(1, 25)
      k <- Gen.choose(0, 50)
      es <- Gen.listOfN(k, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    } yield (n, es)
    forAllSamples(genEdges, 40) { case (n, es) =>
      val g = CsrGraph.fromEdges(n, es)
      (0 until n).foreach(v => assert(!g.hasEdge(v, v)))
    }
  }
}
