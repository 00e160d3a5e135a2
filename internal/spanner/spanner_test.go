package spanner

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pram"
	"repro/internal/stretch"
)

func computeMask(t *testing.T, g *graph.Graph, opt Options) []bool {
	t.Helper()
	adj := graph.NewAdjacency(g)
	res := Compute(g, adj, nil, opt)
	if len(res.InSpanner) != g.M() {
		t.Fatalf("mask length %d != m %d", len(res.InSpanner), g.M())
	}
	return res.InSpanner
}

func stretchBound(k int) float64 { return float64(2*k - 1) }

func TestSpannerStretchGnp(t *testing.T) {
	g := gen.Gnp(300, 0.15, 42)
	k := DefaultK(g.N)
	mask := computeMask(t, g, Options{Seed: 1})
	if bad := stretch.VerifySpanner(g, mask, stretchBound(k)); bad != -1 {
		st := stretch.EdgeStretches(g, mask)
		t.Fatalf("edge %d has stretch %v > %v", bad, st[bad], stretchBound(k))
	}
}

func TestSpannerStretchWeighted(t *testing.T) {
	g := gen.WithRandomWeights(gen.Gnp(200, 0.2, 7), 0.01, 100, 8)
	k := DefaultK(g.N)
	mask := computeMask(t, g, Options{Seed: 2})
	if bad := stretch.VerifySpanner(g, mask, stretchBound(k)); bad != -1 {
		st := stretch.EdgeStretches(g, mask)
		t.Fatalf("weighted: edge %d stretch %v > %v", bad, st[bad], stretchBound(k))
	}
}

func TestSpannerStretchCompleteGraph(t *testing.T) {
	g := gen.Complete(120)
	k := DefaultK(g.N)
	mask := computeMask(t, g, Options{Seed: 3})
	if bad := stretch.VerifySpanner(g, mask, stretchBound(k)); bad != -1 {
		t.Fatalf("complete graph: edge %d violates stretch", bad)
	}
	// K_n must actually shrink: O(n log n) ≪ n²/2.
	kept := graph.CountTrue(mask)
	if kept > g.M()/2 {
		t.Fatalf("spanner kept %d of %d edges of K120", kept, g.M())
	}
}

func TestSpannerSizeScaling(t *testing.T) {
	// Expected size O(k·n^(1+1/k)) = O(n log n) with k = log2 n: check a
	// generous constant on a graph dense enough for shrinkage to show.
	n := 400
	g := gen.Gnp(n, 0.2, 9)
	mask := computeMask(t, g, Options{Seed: 4})
	kept := graph.CountTrue(mask)
	bound := 8 * float64(n) * math.Log2(float64(n))
	if float64(kept) > bound {
		t.Fatalf("spanner size %d exceeds 8·n·log n = %v", kept, bound)
	}
}

func TestSpannerSubsetOfAlive(t *testing.T) {
	g := gen.Gnp(150, 0.2, 5)
	adj := graph.NewAdjacency(g)
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = i%2 == 0
	}
	res := Compute(g, adj, alive, Options{Seed: 6})
	for i, in := range res.InSpanner {
		if in && !alive[i] {
			t.Fatalf("spanner selected dead edge %d", i)
		}
	}
}

func TestSpannerAliveSubgraphStretch(t *testing.T) {
	// The spanner property must hold for the alive subgraph.
	g := gen.Gnp(200, 0.25, 11)
	adj := graph.NewAdjacency(g)
	alive := make([]bool, g.M())
	for i := range alive {
		alive[i] = i%3 != 0
	}
	res := Compute(g, adj, alive, Options{Seed: 7})
	sub := g.Subgraph(alive)
	// Map the mask onto the subgraph's edge indexing.
	subMask := make([]bool, 0, sub.M())
	for i := range alive {
		if alive[i] {
			subMask = append(subMask, res.InSpanner[i])
		}
	}
	k := DefaultK(g.N)
	if bad := stretch.VerifySpanner(sub, subMask, stretchBound(k)); bad != -1 {
		t.Fatalf("alive-subgraph stretch violated at sub-edge %d", bad)
	}
}

func TestSpannerDeterministicAcrossRuns(t *testing.T) {
	g := gen.Gnp(250, 0.2, 13)
	a := computeMask(t, g, Options{Seed: 99})
	b := computeMask(t, g, Options{Seed: 99})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at edge %d", i)
		}
	}
}

// TestSpannerIdenticalAcrossShardCounts runs Compute with 1 to 5
// vertex shards, each grouping through its own scratch; the mask must
// not depend on the partition.
func TestSpannerIdenticalAcrossShardCounts(t *testing.T) {
	g := gen.WithRandomWeights(gen.Gnp(5000, 0.004, 3), 0.1, 10, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []bool
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got := computeMask(t, g, Options{Seed: 5})
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: edge %d differs from the one-shard mask", procs, i)
			}
		}
	}
}

func TestSpannerDifferentSeedsDiffer(t *testing.T) {
	g := gen.Gnp(250, 0.2, 13)
	a := computeMask(t, g, Options{Seed: 1})
	b := computeMask(t, g, Options{Seed: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two seeds produced identical spanners on a dense graph (suspicious)")
	}
}

func TestSpannerK1IsIdentity(t *testing.T) {
	g := gen.Gnp(50, 0.3, 17)
	mask := computeMask(t, g, Options{K: 1, Seed: 1})
	for i, in := range mask {
		if !in {
			t.Fatalf("k=1 spanner dropped edge %d", i)
		}
	}
}

func TestSpannerK2Stretch(t *testing.T) {
	g := gen.Gnp(100, 0.3, 19)
	mask := computeMask(t, g, Options{K: 2, Seed: 1})
	if bad := stretch.VerifySpanner(g, mask, 3); bad != -1 {
		st := stretch.EdgeStretches(g, mask)
		t.Fatalf("(2·2−1)-spanner violated: edge %d stretch %v", bad, st[bad])
	}
}

func TestSpannerSelfLoopsExcluded(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	mask := computeMask(t, g, Options{Seed: 1})
	if mask[1] {
		t.Fatal("self-loop selected")
	}
	if !mask[0] || !mask[2] {
		t.Fatal("bridge edges must always be in the spanner")
	}
}

func TestSpannerEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{graph.New(0), graph.New(1), gen.Path(2), gen.Path(3)} {
		mask := computeMask(t, g, Options{Seed: 1})
		// Trees must be kept entirely: every edge is a bridge.
		for i, in := range mask {
			if !in {
				t.Fatalf("n=%d: tree edge %d dropped", g.N, i)
			}
		}
	}
}

func TestSpannerDisconnectedGraph(t *testing.T) {
	// Two disjoint cliques: spanner must certify both sides.
	k1 := gen.Complete(30)
	g := graph.New(60)
	for _, e := range k1.Edges {
		g.Edges = append(g.Edges, e)
		g.Edges = append(g.Edges, graph.Edge{U: e.U + 30, V: e.V + 30, W: 1})
	}
	mask := computeMask(t, g, Options{Seed: 21})
	k := DefaultK(g.N)
	if bad := stretch.VerifySpanner(g, mask, stretchBound(k)); bad != -1 {
		t.Fatalf("disconnected: edge %d violates stretch", bad)
	}
}

func TestSpannerTrackerAccumulates(t *testing.T) {
	g := gen.Gnp(200, 0.2, 23)
	adj := graph.NewAdjacency(g)
	tr := pram.New()
	Compute(g, adj, nil, Options{Seed: 1, Tracker: tr})
	if tr.Work() <= 0 || tr.Depth() <= 0 {
		t.Fatalf("tracker empty: work=%d depth=%d", tr.Work(), tr.Depth())
	}
	if tr.Work() < tr.Depth() {
		t.Fatal("work < depth is impossible")
	}
}

func TestDefaultK(t *testing.T) {
	if DefaultK(2) != 2 || DefaultK(1000) != 10 || DefaultK(1024) != 10 {
		t.Fatalf("DefaultK: %d %d %d", DefaultK(2), DefaultK(1000), DefaultK(1024))
	}
}
