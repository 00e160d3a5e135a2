package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/solver"
	"repro/internal/spectral"
	"repro/internal/stream"
	"repro/internal/vec"
)

// The calls below are the benchmark's boundary with the program. Each
// takes the tracer and, when tracing is on, records a span around every
// module call it makes; where the traced form splits a call into its
// parts, the parts are the exact sequence the whole call runs, so the
// output is bit-identical (the workloads check this).

const (
	solveTol    = 1e-8
	residualTol = 1e-8 // recomputed ‖b − L·x‖/‖b‖ must stay within this

	// graphSeed generates the pipeline and dist graphs (serve-mixed uses
	// E14's, serveSeed). It is fixed, so a run's figures move with the
	// code and not with which graph a seed drew (the solver chain's depth
	// alone varies from 7 to 13 across image seeds); --seed drives every
	// random choice made on the graphs.
	graphSeed = 1

	// quality_eps is the median of probeBatches independent
	// spectral.QuadFormProbes lower bounds of probesPerBatch probes each:
	// one batch's maximum deviation is too noisy to compare runs by.
	probeBatches   = 16
	probesPerBatch = 32
)

// A workload sets up setupFirst times before its loop and setupBetween
// times after each operation (on serve-mixed, in each companion
// round); setup_s is the median of them all. The host's speed drifts by
// up to 2× over tens of seconds, so set-ups timed back to back at the
// start of a run sample one moment of it, and their median moved by
// 0.29 of itself from run to run; spread over the run, they see the
// same host as the operations do.
const (
	setupFirst   = 5
	setupBetween = 2
)

// setups collects a workload's set-up times.
type setups struct{ secs []float64 }

// time runs fn after a garbage collection, so every repetition starts
// from the same heap, and records its time.
func (s *setups) time(fn func()) {
	runtime.GC()
	t := time.Now()
	fn()
	s.secs = append(s.secs, since(t))
}

// graphSetup returns the set-up of a workload whose input is the graph
// mk generates: the first call stores it in *g, and every later call
// must generate the same graph.
func graphSetup(rep *report, su *setups, g **graph.Graph, mk func() *graph.Graph) func() {
	return func() {
		var h *graph.Graph
		su.time(func() { h = mk() })
		switch {
		case *g == nil:
			*g = h
		case !sameEdges(h.Edges, (*g).Edges):
			rep.attempted++
			rep.fail("set-up %d generated a different graph", len(su.secs))
		}
	}
}

// repeat calls fn k times.
func repeat(k int, fn func()) {
	for i := 0; i < k; i++ {
		fn()
	}
}

// opSeed derives the seed of operation op from the run seed.
func opSeed(seed uint64, op int) uint64 { return rng.SplitAt(seed, uint64(op)).Uint64() }

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// gaussianRHS returns a standard Gaussian vector projected ⊥ 1.
func gaussianRHS(n int, seed uint64) []float64 {
	r := rng.New(seed)
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Norm()
	}
	vec.ProjectOutOnes(b)
	return b
}

// coreLayer accumulates the per-round view of core.ParallelSample.
type coreLayer struct {
	roundS, bundleT, bundleFrac, allocMB []float64
	calls, rounds, identity              int
}

// sparsify runs core.ParallelSparsify. Traced, it runs the rounds one by
// one through core.ParallelSample under the per-round seeds
// ParallelSparsify derives with core.RoundSeedMix.
func sparsify(tr *tracer, cl *coreLayer, g *graph.Graph, eps, rho float64, cfg core.Config, op, parent int) (*graph.Graph, error) {
	if !tr.on {
		h, _, err := core.ParallelSparsify(g, eps, rho, cfg)
		return h, err
	}
	cl.calls++
	before := allocMB()
	defer func() { cl.allocMB = append(cl.allocMB, allocMB()-before) }()
	rounds := int(math.Ceil(math.Log2(rho))) // ρ > 1 in every workload
	cur := g
	for i := 0; i < rounds; i++ {
		roundCfg := cfg
		roundCfg.Seed = cfg.Seed ^ (uint64(i+1) * core.RoundSeedMix)
		var next *graph.Graph
		var st *core.SampleStats
		var err error
		d := tr.do("core.ParallelSample", op, parent, func() {
			next, st, err = core.ParallelSample(cur, eps/float64(rounds), roundCfg)
		})
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		cl.roundS = append(cl.roundS, d.Seconds())
		cl.bundleT = append(cl.bundleT, float64(st.BundleT))
		cl.bundleFrac = append(cl.bundleFrac, float64(st.BundleEdges)/float64(max(st.InputEdges, 1)))
		cl.rounds++
		if st.Exhausted {
			cl.identity++
		}
		cur = next
	}
	return cur, nil
}

func (cl *coreLayer) report(rep *report) {
	rep.setMedian("core.round_s", cl.roundS)
	rep.set("core.rounds", float64(cl.rounds)/float64(max(cl.calls, 1)), cl.calls)
	rep.setMedian("core.bundle_t", cl.bundleT)
	rep.setMedian("core.bundle_frac", cl.bundleFrac)
	rep.set("core.identity_rounds", float64(cl.identity)/float64(max(cl.rounds, 1)), cl.rounds)
	rep.setMedian("core.alloc_mb", cl.allocMB)
}

// solveLayer accumulates the per-call view of the solver chain and CG.
type solveLayer struct {
	buildS, depth, nnz, sparsified, allocMB, cgS, cgIters []float64
}

// solve runs solver.SolveLaplacian. Traced, it runs the same steps in
// the same order — solver.BuildChain, matrix.Laplacian, linalg.CG with
// the chain as preconditioner — so x is bit-identical.
func solve(tr *tracer, sl *solveLayer, h *graph.Graph, b []float64, seed uint64, op, parent int) ([]float64, error) {
	opt := solver.ChainOptions{Seed: seed}
	if !tr.on {
		x, res, err := solver.SolveLaplacian(h, b, solveTol, opt)
		if err == nil && !res.Converged {
			err = fmt.Errorf("solver did not converge: %d iterations, residual %g", res.Iterations, res.Residual)
		}
		return x, err
	}
	var chain *solver.Chain
	var err error
	before := allocMB()
	d := tr.do("solver.BuildChain", op, parent, func() { chain, err = solver.BuildChain(h, opt) })
	sl.allocMB = append(sl.allocMB, allocMB()-before)
	if err != nil {
		return nil, err
	}
	sl.buildS = append(sl.buildS, d.Seconds())
	sl.depth = append(sl.depth, float64(chain.Depth()))
	sl.nnz = append(sl.nnz, float64(chain.TotalNNZ))
	levels := 0
	for _, st := range chain.BuildStats {
		if st.Sparsified {
			levels++
		}
	}
	sl.sparsified = append(sl.sparsified, float64(levels))
	var l *matrix.CSR
	tr.do("matrix.Laplacian", op, parent, func() { l = matrix.Laplacian(h) })
	x := make([]float64, h.N)
	var res linalg.CGResult
	d = tr.do("linalg.CG", op, parent, func() {
		res, err = linalg.CG(linalg.CSROp{M: l}, b, x, linalg.CGOptions{
			Tol: solveTol, ProjectOnes: true, Prec: chain, MaxIter: 20*h.N + 200,
		})
	})
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("solver did not converge: %d iterations, residual %g", res.Iterations, res.Residual)
	}
	sl.cgS = append(sl.cgS, d.Seconds())
	sl.cgIters = append(sl.cgIters, float64(res.Iterations))
	return x, nil
}

func (sl *solveLayer) report(rep *report) {
	rep.setMedian("solver.chain_build_s", sl.buildS)
	rep.setMedian("solver.chain_depth", sl.depth)
	rep.setMedian("solver.chain_nnz", sl.nnz)
	rep.setMedian("solver.sparsified_levels", sl.sparsified)
	rep.setMedian("solver.alloc_mb", sl.allocMB)
	rep.setMedian("linalg.cg_s", sl.cgS)
	rep.setMedian("linalg.cg_iters", sl.cgIters)
}

// residual recomputes ‖b − L_h·x‖/‖b‖ from matrix.Laplacian, independent
// of what the solver reported.
func residual(h *graph.Graph, b, x []float64) float64 {
	l := matrix.Laplacian(h)
	r := make([]float64, h.N)
	l.MulVec(r, x)
	vec.Sub(r, b, r)
	return vec.Norm2(r) / vec.Norm2(b)
}

// quality returns probeBatches independent probe lower bounds on the ε
// by which h approximates g.
func quality(tr *tracer, g, h *graph.Graph, seed uint64, op, parent int) []float64 {
	eps := make([]float64, probeBatches)
	tr.do("spectral.QuadFormProbes", op, parent, func() {
		for i := range eps {
			eps[i] = spectral.QuadFormProbes(g, h, probesPerBatch, seed+uint64(i)).Epsilon()
		}
	})
	return eps
}

// maxOf returns the largest of xs; -Inf for none.
func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// replay streams edges through stream.New/Ingest and snapshots the
// summary whenever the prefix reaches the next of the given marks (and
// at the end), returning the snapshots in mark order.
func replay(tr *tracer, n int, edges []graph.Edge, opt stream.Options, marks []int64, op int) ([]*graph.Graph, []int, error) {
	var sums []*graph.Graph
	var reduces []int
	var err error
	tr.do("stream.replay", op, 0, func() {
		s := stream.New(n, opt)
		next := 0
		snap := func() {
			var g *graph.Graph
			var r int
			if g, r, err = s.Snapshot(); err == nil {
				sums = append(sums, g)
				reduces = append(reduces, r)
			}
		}
		for i, e := range edges {
			if err = s.Ingest(e); err != nil {
				return
			}
			for next < len(marks) && int64(i+1) == marks[next] {
				if snap(); err != nil {
					return
				}
				next++
			}
		}
		if next < len(marks) {
			err = fmt.Errorf("stream replay: mark %d past the %d-edge stream", marks[next], len(edges))
			return
		}
		snap()
	})
	return sums, reduces, err
}

// distLayer accumulates what dist.Run reports.
type distLayer struct {
	memS, shardedS, meshS, coreRefS, rounds, messages, words, wire, dataWire, perWord, peak []float64
}

func (dl *distLayer) record(res dist.Stats, wire, dataWire int64, peak int) {
	dl.rounds = append(dl.rounds, float64(res.Rounds))
	dl.messages = append(dl.messages, float64(res.Messages))
	dl.words = append(dl.words, float64(res.Words))
	dl.wire = append(dl.wire, float64(wire))
	dl.dataWire = append(dl.dataWire, float64(dataWire))
	if res.CrossShardWords > 0 {
		dl.perWord = append(dl.perWord, float64(wire)/float64(res.CrossShardWords))
	}
	dl.peak = append(dl.peak, float64(peak))
}

func (dl *distLayer) report(rep *report) {
	rep.setMedian("dist.mem_s", dl.memS)
	rep.setMedian("dist.sharded_s", dl.shardedS)
	if len(dl.meshS) > 0 && len(dl.shardedS) > 0 {
		rep.set("dist.socket_s", median(dl.meshS)-median(dl.shardedS), len(dl.meshS))
	}
	rep.setMedian("dist.core_ref_s", dl.coreRefS)
	rep.setMedian("dist.rounds", dl.rounds)
	rep.setMedian("dist.messages", dl.messages)
	rep.setMedian("dist.words", dl.words)
	rep.setMedian("dist.wire_bytes", dl.wire)
	rep.setMedian("dist.data_wire_bytes", dl.dataWire)
	rep.setMedian("dist.bytes_per_word", dl.perWord)
	rep.setMedian("dist.peak_view_words", dl.peak)
}

// runDistSpecs runs job on Mesh(p) and, when tracing, first on Mem()
// and Sharded(p), checking that the three ledgers agree. It returns the
// Mesh result and its wall time.
func runDistSpecs[R any](tr *tracer, dl *distLayer, g *graph.Graph, p int, job dist.Job[R], op, parent int) (dist.Result[R], float64, error) {
	var ledgers []dist.Stats
	if tr.on {
		for _, s := range []struct {
			name string
			spec dist.TransportSpec
			into *[]float64
		}{{"dist.Run/mem", dist.Mem(), &dl.memS}, {"dist.Run/sharded", dist.Sharded(p), &dl.shardedS}} {
			var res dist.Result[R]
			var err error
			d := tr.do(s.name, op, parent, func() { res, err = dist.Run(dist.NewEngine(s.spec, g), job) })
			if err != nil {
				return res, 0, fmt.Errorf("%s: %w", s.name, err)
			}
			*s.into = append(*s.into, d.Seconds())
			ledgers = append(ledgers, res.Stats)
		}
	}
	var res dist.Result[R]
	var err error
	d := tr.do("dist.Run/mesh", op, parent, func() { res, err = dist.Run(dist.NewEngine(dist.Mesh(p), g), job) })
	if err != nil {
		return res, 0, fmt.Errorf("dist.Run/mesh: %w", err)
	}
	dl.meshS = append(dl.meshS, d.Seconds())
	dl.record(res.Stats, res.WireBytes, res.DataWireBytes, res.PeakViewWords)
	for _, l := range ledgers {
		if !sameLedger(l, res.Stats) {
			return res, 0, fmt.Errorf("dist Stats differ across transports: %v vs mesh %v", l, res.Stats)
		}
	}
	return res, d.Seconds(), nil
}

// sameLedger compares the transport-independent part of two ledgers.
func sameLedger(a, b dist.Stats) bool {
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.Words != b.Words ||
		a.MaxMessageWords != b.MaxMessageWords || len(a.Phases) != len(b.Phases) {
		return false
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Name != pb.Name || pa.Rounds != pb.Rounds || pa.Messages != pb.Messages || pa.Words != pb.Words {
			return false
		}
	}
	return true
}

func sameEdges(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hashEdges fingerprints an edge list bit for bit.
func hashEdges(edges []graph.Edge) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(buf[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// allocMB returns the bytes allocated so far by the process, in MiB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
