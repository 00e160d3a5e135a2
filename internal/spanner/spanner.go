// Package spanner implements the Baswana–Sen randomized (2k−1)-spanner
// algorithm [Baswana & Sen, Random Struct. Algorithms 2007] in the
// snapshot-parallel form that the paper's Theorem 1 (CRCW PRAM) and
// Theorem 2 (synchronous distributed) both rely on: in each of k−1
// clustering iterations every vertex makes its decision simultaneously
// against the cluster assignment at the start of the iteration.
//
// Lengths are resistive (ℓ_e = 1/w_e), so with k = ⌈log₂ n⌉ the output
// satisfies the paper's spanner definition st_H(e) ≤ 2 log n for every
// edge e, with expected size O(k·n^(1+1/k)) = O(n log n).
//
// The algorithm works on a subset of the edges of a host graph selected
// by an "alive" mask, which is what lets bundle construction peel
// spanners off G − ΣH_j without copying the graph.
//
// Each vertex's decision groups its alive edges by neighbour cluster.
// The grouping uses no hash map: every parutil shard owns a dense
// scratch, allocated once per Compute call and reused by every
// iteration. It holds a slot index per cluster id (−1 when absent), the
// list of clusters touched by the current vertex with their lightest
// edge and a remove flag alongside, and a reset that walks only the
// touched clusters. The order in which a vertex's edges or groups are
// scanned cannot change the output: the minima are taken over a total
// order (resistive length, then edge id), and the spanner additions and
// edge kills are idempotent set operations applied after every vertex
// has decided.
package spanner

import (
	"math"

	"repro/internal/graph"
	"repro/internal/parutil"
	"repro/internal/pram"
	"repro/internal/rng"
)

// Options configures a spanner computation.
type Options struct {
	// K is the number of levels; the result is a (2K−1)-spanner in the
	// resistive metric. K ≤ 0 selects ⌈log₂ n⌉ (the paper's log n-spanner).
	K int
	// Seed drives all sampling decisions; equal seeds give identical
	// outputs at any GOMAXPROCS.
	Seed uint64
	// Tracker, when non-nil, accumulates modeled CRCW work/depth.
	Tracker *pram.Tracker
}

// Result is the output of a spanner computation.
type Result struct {
	// InSpanner marks the selected edges (indices into the host graph's
	// edge list). It is always a subset of the alive mask.
	InSpanner []bool
	// Center is the final cluster assignment after phase 1 (−1 for
	// vertices that became unclustered); exported for the distributed
	// simulation and for tests of the clustering invariants.
	Center []int32
	// Iterations is the number of clustering iterations performed (k−1).
	Iterations int
}

// IterSeedMix derives each clustering iteration's sampling stream from
// the spanner seed. Exported for the distributed simulation
// (internal/dist), which must flip identical center-sampling coins to
// stay bit-identical with Compute.
const IterSeedMix = 0x9e3779b97f4a7c15

// DefaultK returns the paper's choice ⌈log₂ n⌉, at least 2.
func DefaultK(n int) int {
	if n < 4 {
		return 2
	}
	k := int(math.Ceil(math.Log2(float64(n))))
	if k < 2 {
		k = 2
	}
	return k
}

// Compute runs Baswana–Sen over the alive edges of g. adj must be the
// adjacency of g. alive may be nil, meaning all edges. The returned
// mask has length len(g.Edges).
func Compute(g *graph.Graph, adj *graph.Adjacency, alive []bool, opt Options) *Result {
	n := g.N
	m := len(g.Edges)
	k := opt.K
	if k <= 0 {
		k = DefaultK(n)
	}
	inSpanner := make([]bool, m)
	center := make([]int32, n)
	for i := range center {
		center[i] = int32(i)
	}
	if k == 1 {
		// A 1-spanner is the graph itself.
		for i := range inSpanner {
			if alive == nil || alive[i] {
				inSpanner[i] = true
			}
		}
		return &Result{InSpanner: inSpanner, Center: center}
	}
	// dead[i]: edge i no longer in E'. Initialized from the alive mask.
	dead := make([]bool, m)
	for i := range dead {
		if alive != nil && !alive[i] {
			dead[i] = true
		}
		if g.Edges[i].U == g.Edges[i].V {
			dead[i] = true // self-loops carry no spectral information
		}
	}
	p := math.Pow(float64(n), -1.0/float64(k))
	st := &state{
		g: g, adj: adj, dead: dead, inSpanner: inSpanner,
		center: center, seed: opt.Seed, sampleProb: p,
	}
	aliveCount := int64(0)
	for _, d := range dead {
		if !d {
			aliveCount++
		}
	}
	for iter := 1; iter <= k-1; iter++ {
		st.clusterIteration(iter)
		// Modeled cost: a full scan of the surviving edges with O(1)
		// CRCW depth per iteration (concurrent min via combining).
		opt.Tracker.ParFor(2*aliveCount, 1)
	}
	st.vertexClusterJoin()
	opt.Tracker.ParFor(2*aliveCount, 1)
	return &Result{InSpanner: inSpanner, Center: st.center, Iterations: k - 1}
}

// state carries the per-computation arrays so that the iteration
// methods stay readable.
type state struct {
	g          *graph.Graph
	adj        *graph.Adjacency
	dead       []bool  // mutated only between iterations
	inSpanner  []bool  // mutated only between iterations
	center     []int32 // cluster assignment at the start of the iteration
	seed       uint64
	sampleProb float64
	scratch    []*groupScratch // one per parutil shard, reused across iterations
}

// BestEdge tracks the lightest (in resistive length) alive edge from a
// vertex to one adjacent cluster; ties break by edge id so the result
// is independent of scan order. It is exported because the distributed
// simulation (internal/dist) must apply the identical total order to
// stay bit-compatible with this implementation.
type BestEdge struct {
	Eid int32
	Len float64
}

// Better folds candidate edge (eid, l) into a, keeping the lighter
// (resistive length, then edge id) of the two.
func Better(a BestEdge, eid int32, l float64) BestEdge {
	if a.Eid < 0 || l < a.Len || (l == a.Len && eid < a.Eid) {
		return BestEdge{Eid: eid, Len: l}
	}
	return a
}

// UpdateBest folds edge (eid, l) into a per-cluster minimum map,
// treating a missing entry as "no edge yet" (the zero BestEdge would
// otherwise masquerade as edge 0 with length 0). Compute groups through
// its dense per-shard scratch instead; the map form serves the
// distributed simulation's decide loop.
func UpdateBest(m map[int32]BestEdge, c int32, eid int32, l float64) {
	if be, ok := m[c]; ok {
		m[c] = Better(be, eid, l)
	} else {
		m[c] = BestEdge{Eid: eid, Len: l}
	}
}

// groupScratch groups one vertex's alive edges by neighbour cluster
// without a hash map. slot[c] is cluster c's index in keys (−1 when c
// is absent); best and remove run parallel to keys; reset walks only
// the touched keys, so grouping a vertex costs O(degree), not O(n).
// adds and kills collect the shard's spanner additions and edge kills
// for the current iteration.
type groupScratch struct {
	slot   []int32
	keys   []int32
	best   []BestEdge
	remove []bool
	adds   []int32
	kills  []int32
}

func newGroupScratch(n int) *groupScratch {
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = -1
	}
	return &groupScratch{slot: slot}
}

// add folds edge (eid, l) into cluster c's group.
func (sc *groupScratch) add(c, eid int32, l float64) {
	if i := sc.slot[c]; i >= 0 {
		sc.best[i] = Better(sc.best[i], eid, l)
		return
	}
	sc.slot[c] = int32(len(sc.keys))
	sc.keys = append(sc.keys, c)
	sc.best = append(sc.best, BestEdge{Eid: eid, Len: l})
	sc.remove = append(sc.remove, false)
}

// removed reports whether cluster c is grouped and marked for removal.
func (sc *groupScratch) removed(c int32) bool {
	i := sc.slot[c]
	return i >= 0 && sc.remove[i]
}

func (sc *groupScratch) reset() {
	for _, c := range sc.keys {
		sc.slot[c] = -1
	}
	sc.keys, sc.best, sc.remove = sc.keys[:0], sc.best[:0], sc.remove[:0]
}

// group resets sc and groups v's alive edges by neighbour cluster,
// skipping unclustered neighbours and, when own ≥ 0, v's own cluster.
func (s *state) group(sc *groupScratch, v, own int32) {
	sc.reset()
	lo, hi := s.adj.Range(v)
	for slot := lo; slot < hi; slot++ {
		eid := s.adj.EID[slot]
		if s.dead[eid] {
			continue
		}
		cu := s.center[s.adj.Nbr[slot]]
		if cu < 0 || cu == own {
			continue
		}
		sc.add(cu, eid, s.g.Edges[eid].Resistance())
	}
}

// forShards runs body over a balanced partition of the vertices, each
// shard with its own scratch, allocated on first use and kept for the
// whole Compute call. Every shard's adds and kills start empty.
func (s *state) forShards(body func(sc *groupScratch, lo, hi int)) {
	n := s.g.N
	if p := parutil.Workers(n); p > len(s.scratch) {
		s.scratch = append(s.scratch, make([]*groupScratch, p-len(s.scratch))...)
	}
	for _, sc := range s.scratch {
		if sc != nil {
			sc.adds, sc.kills = sc.adds[:0], sc.kills[:0]
		}
	}
	parutil.ForShard(n, func(shard, lo, hi int) {
		if s.scratch[shard] == nil {
			s.scratch[shard] = newGroupScratch(n)
		}
		body(s.scratch[shard], lo, hi)
	})
}

// apply commits every shard's simultaneous decisions. They are
// idempotent set operations, so application order is irrelevant.
func (s *state) apply() {
	for _, sc := range s.scratch {
		if sc == nil {
			continue
		}
		for _, eid := range sc.adds {
			s.inSpanner[eid] = true
		}
		for _, eid := range sc.kills {
			s.dead[eid] = true
		}
	}
}

// clusterIteration performs one Baswana–Sen phase-1 iteration.
func (s *state) clusterIteration(iter int) {
	n := s.g.N
	// Step 1: sample cluster centers with probability n^{-1/k}. The
	// decision is a pure function of (seed, iteration, center id).
	sampled := make([]bool, n)
	parutil.For(n, func(v int) {
		r := rng.SplitAt(s.seed^(uint64(iter)*IterSeedMix), uint64(v))
		sampled[v] = r.Float64() < s.sampleProb
	})

	newCenter := make([]int32, n)
	s.forShards(func(sc *groupScratch, lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			c := s.center[v]
			if c < 0 {
				newCenter[v] = -1
				continue
			}
			if sampled[c] {
				// Vertices of sampled clusters keep everything.
				newCenter[v] = c
				continue
			}
			// Group v's alive inter-cluster edges by neighbor cluster.
			// Edges to unclustered vertices cannot exist by the E'
			// invariant; intra-cluster edges were removed at the end of
			// the previous iteration. group skips both defensively.
			s.group(sc, v, c)
			// Find the lightest edge into a *sampled* adjacent cluster.
			best := BestEdge{Eid: -1}
			for i, cu := range sc.keys {
				if sampled[cu] {
					best = Better(best, sc.best[i].Eid, sc.best[i].Len)
				}
			}
			loS, hiS := s.adj.Range(v)
			if best.Eid < 0 {
				// Case (a): no sampled neighbor cluster. Add the lightest
				// edge to every adjacent cluster; v drops out of the
				// clustering and discards all its alive edges.
				newCenter[v] = -1
				for _, be := range sc.best {
					sc.adds = append(sc.adds, be.Eid)
				}
				for slot := loS; slot < hiS; slot++ {
					if eid := s.adj.EID[slot]; !s.dead[eid] {
						sc.kills = append(sc.kills, eid)
					}
				}
				continue
			}
			// Case (b): join the sampled cluster reached by the
			// lightest such edge; certify lighter adjacent clusters.
			joined := s.g.Edges[best.Eid]
			jc := s.center[joined.U]
			if joined.U == v {
				jc = s.center[joined.V]
			}
			newCenter[v] = jc
			sc.adds = append(sc.adds, best.Eid)
			for i, cu := range sc.keys {
				be := sc.best[i]
				if cu == jc {
					sc.remove[i] = true
				} else if be.Len < best.Len || (be.Len == best.Len && be.Eid < best.Eid) {
					sc.adds = append(sc.adds, be.Eid)
					sc.remove[i] = true
				}
			}
			for slot := loS; slot < hiS; slot++ {
				eid := s.adj.EID[slot]
				if s.dead[eid] {
					continue
				}
				if cu := s.center[s.adj.Nbr[slot]]; cu >= 0 && sc.removed(cu) {
					sc.kills = append(sc.kills, eid)
				}
			}
		}
	})
	s.apply()
	s.center = newCenter
	// Step 4: discard intra-cluster edges under the new assignment.
	parutil.For(len(s.g.Edges), func(i int) {
		if s.dead[i] {
			return
		}
		e := s.g.Edges[i]
		cu, cv := s.center[e.U], s.center[e.V]
		if cu >= 0 && cu == cv {
			s.dead[i] = true
		}
	})
}

// vertexClusterJoin is Baswana–Sen phase 2: every vertex adds the
// lightest alive edge to each adjacent surviving cluster, after which
// E' is empty.
func (s *state) vertexClusterJoin() {
	s.forShards(func(sc *groupScratch, lo, hi int) {
		for v := lo; v < hi; v++ {
			s.group(sc, int32(v), -1)
			for _, be := range sc.best {
				sc.adds = append(sc.adds, be.Eid)
			}
		}
	})
	s.apply()
	for i := range s.dead {
		s.dead[i] = true
	}
}
