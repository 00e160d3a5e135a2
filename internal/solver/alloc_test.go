package solver

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// totalAlloc returns the bytes allocated by one run of f.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// minTotalAlloc returns the smallest TotalAlloc of three runs of f,
// after one warm-up run (lazily initialized runtime state is not the
// run's bill).
func minTotalAlloc(f func()) uint64 {
	f()
	best := totalAlloc(f)
	for i := 0; i < 2; i++ {
		best = min(best, totalAlloc(f))
	}
	return best
}

// TestBuildChainAllocationBudget pins the map-free spanner grouping and
// graph.Canonical merge at the allocator. With a hash map grouping each
// vertex's edges in spanner.Compute and a map-plus-sort.Slice
// Canonical, this build allocated 201.9 MB; with both replaced by dense
// scratch (and the two-step concatenation pre-sized), 95.9 MB. Putting
// back only the spanner map gives 115.7 MB, only the Canonical map
// 114.0 MB, so a 105 MB budget trips on either while leaving ~9%
// headroom. GOMAXPROCS is fixed at 2 because the per-shard scratch
// count follows it (figures at 1 and 4 differ by ~2%).
func TestBuildChainAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := gen.ImageAffinityRadius(24, 24, 2, 0.2, 5)
	const budget = 105_000_000
	got := minTotalAlloc(func() {
		if _, err := BuildChain(g, ChainOptions{Seed: 3}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildChain TotalAlloc = %d bytes (budget %d)", got, budget)
	if got > budget {
		t.Errorf("BuildChain allocated %d bytes, budget %d: did a hash map come back into the spanner grouping or graph.Canonical?", got, budget)
	}
}

// TestBuildChainManySingletons: a 200-vertex path among 2^15 vertices
// has 2^15 − 199 components, all but one of them degree-0 singletons.
// estimateSigma2 used to allocate and scan a length-n vector for each
// of them, Θ(n²) work and bytes per level: 77.1 GB and about 90 s per
// build on a 2-CPU host. Skipping them brings the build to 97.6 MB and
// under a second; the budget sits at about twice that.
func TestBuildChainManySingletons(t *testing.T) {
	const n = 1 << 15
	g := graph.New(n)
	for i := 0; i < 199; i++ {
		g.Edges = append(g.Edges, graph.Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	const budget = 200_000_000
	got := totalAlloc(func() {
		if _, err := BuildChain(g, ChainOptions{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildChain TotalAlloc = %d bytes (budget %d)", got, budget)
	if got > budget {
		t.Errorf("BuildChain on a path among %d vertices allocated %d bytes, budget %d: estimateSigma2 is quadratic in the component count again?", n, got, budget)
	}
}
