package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// runPipeline is the paper's application: sparsify, then solve on the
// sparsifier. A closed loop with one caller; each operation runs
// core.ParallelSparsify(G, ε=1, ρ=4) and solver.SolveLaplacian(H, b,
// 1e-8) with its own seed and Gaussian b ⊥ 1, on the image affinity
// graph ImageAffinityRadius(40, 40, 5, 0.2, graphSeed).
//
// After the loop, a few passes fill the metrics the loop has no
// operation for: dist.Run of the first operations' jobs over Mesh(P)
// (dist_s, wire_bytes; each output must equal that operation's
// sparsifier). Between operations it sets up again (setup_s) and
// replays G through stream.New/Ingest/Snapshot (ingest_edges_per_s).
func runPipeline(cfg runConfig) *report {
	const eps, rho = 1.0, 4.0
	rep := newReport()
	tr := cfg.trace

	var g *graph.Graph
	var su setups
	setUp := graphSetup(rep, &su, &g, func() *graph.Graph { return gen.ImageAffinityRadius(40, 40, 5, 0.2, graphSeed) })
	repeat(setupFirst, setUp)
	rep.info["n"], rep.info["m"] = g.N, g.M()
	ir := ingestReplays{g: g, seed: cfg.seed}

	var cl coreLayer
	var sl solveLayer
	var sparsifyS, solveS, latMS, keep, eps0 []float64
	var tracedOp, plainOp []float64
	// firsts keeps the sparsifiers of the first operations, which the
	// distributed runs after the loop must reproduce.
	var firsts []*graph.Graph
	const distReps = 3

	// op runs one operation. When tracing, operations come in pairs on
	// one seed: the traced split form first, then the plain calls, whose
	// outputs must match bit for bit.
	op := func(i int, seed uint64, traced bool) (*graph.Graph, []float64, bool) {
		rep.attempted++
		ptr := tr
		if !traced {
			ptr = newTracer(false)
		}
		b := gaussianRHS(g.N, seed^0x5bd1e995)
		root := ptr.begin("pipeline.op", i, 0)
		t0 := time.Now()
		h, err := sparsify(ptr, &cl, g, eps, rho, core.DefaultConfig(seed), i, root)
		t1 := time.Now()
		if err != nil {
			rep.fail("op %d sparsify: %v", i, err)
			return nil, nil, false
		}
		x, err := solve(ptr, &sl, h, b, seed, i, root)
		t2 := time.Now()
		ptr.end(root)
		if err != nil {
			rep.fail("op %d solve: %v", i, err)
			return nil, nil, false
		}
		if traced {
			tracedOp = append(tracedOp, t2.Sub(t0).Seconds())
		} else {
			plainOp = append(plainOp, t2.Sub(t0).Seconds())
		}
		q := quality(ptr, g, h, seed, i, 0)
		switch res := residual(h, b, x); {
		case !(res <= residualTol):
			rep.fail("op %d: recomputed residual %g above %g", i, res, residualTol)
		case !(maxOf(q) <= eps):
			rep.fail("op %d: probe ε %g above the requested %g", i, maxOf(q), eps)
		case h.M() >= g.M():
			rep.fail("op %d: sparsifier kept %d of %d edges", i, h.M(), g.M())
		default:
			sparsifyS = append(sparsifyS, t1.Sub(t0).Seconds())
			solveS = append(solveS, t2.Sub(t1).Seconds())
			latMS = append(latMS, t2.Sub(t0).Seconds()*1e3)
			keep = append(keep, float64(h.M())/float64(g.M()))
			eps0 = append(eps0, q...)
			return h, x, true
		}
		return nil, nil, false
	}

	// between runs between operations and after the last: set-ups and
	// an ingest replay, so that their samples span the run.
	between := func() {
		repeat(setupBetween, setUp)
		ir.once(rep, tr)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if i > 0 {
			between()
		}
		seed := opSeed(cfg.seed, i)
		if !tr.on {
			h, _, ok := op(i, seed, false)
			if ok && len(firsts) == i && i < distReps {
				firsts = append(firsts, h)
			}
			continue
		}
		h, x, ok := op(i, seed, true)
		h2, x2, ok2 := op(i, seed, false)
		if ok && ok2 && !(sameEdges(h.Edges, h2.Edges) && sameFloats(x, x2)) {
			rep.fail("op %d: traced ParallelSample rounds + BuildChain + CG differ from ParallelSparsify + SolveLaplacian", i)
		}
		if ok2 && len(firsts) == i && i < distReps {
			firsts = append(firsts, h2)
		}
	}
	between()
	rep.setMedian("setup_s", su.secs)
	rep.setMedian("sparsify_s", sparsifyS)
	rep.setMedian("solve_s", solveS)
	rep.setMedian("keep_frac", keep)
	rep.setMedian("quality_eps", eps0)
	rep.setMedian("query_p50_ms", latMS)
	rep.set("query_p99_ms", percentile(latMS, 0.99), len(latMS))

	// dist_s and wire_bytes: the first operations' jobs, distributed;
	// each output must equal that operation's sparsifier.
	var dl distLayer
	var distS, wire []float64
	for i, h := range firsts {
		rep.attempted++
		res, d, err := runDistSpecs(tr, &dl, g, cfg.shards, dist.SparsifyJob(eps, rho, core.DefaultConfig(opSeed(cfg.seed, i))), -1-i, 0)
		switch {
		case err != nil:
			rep.fail("dist.Run %d: %v", i, err)
		case !sameEdges(res.Output.Edges, h.Edges):
			rep.fail("dist.Run %d over Mesh(%d) differs from core.ParallelSparsify on the same seed", i, cfg.shards)
		default:
			distS = append(distS, d)
			wire = append(wire, float64(res.WireBytes))
		}
	}
	rep.setMedian("dist_s", distS)
	rep.setMedian("wire_bytes", wire)

	ir.report(rep)

	dl.coreRefS = sparsifyS
	cl.report(rep)
	sl.report(rep)
	dl.report(rep)
	if tr.on && len(plainOp) > 0 {
		rep.set("trace.overhead_frac", median(tracedOp)/median(plainOp)-1, len(tracedOp))
	}
	rep.info["eps"], rep.info["rho"], rep.info["solve_tol"] = eps, rho, solveTol
	return rep
}

// ingestReplays fills ingest_edges_per_s and stream.replay_s for the
// workloads without a server: G's edges through stream.New/Ingest and a
// final Snapshot. The workloads replay once after each operation, so the
// samples span the run; every summary must equal the first.
type ingestReplays struct {
	g     *graph.Graph
	seed  uint64
	runs  int
	secs  []float64
	first uint64
}

// once replays G once.
func (ir *ingestReplays) once(rep *report, tr *tracer) {
	i := ir.runs
	ir.runs++
	rep.attempted++
	t := time.Now()
	sums, reduces, err := replay(tr, ir.g.N, ir.g.Edges, stream.Options{Seed: ir.seed | 1}, nil, -1-i)
	d := since(t)
	if err != nil {
		rep.fail("stream replay %d: %v", i, err)
		return
	}
	h := hashEdges(sums[0].Edges)
	if i == 0 {
		ir.first = h
	}
	if h != ir.first || reduces[0] == 0 || sums[0].M() >= ir.g.M() {
		rep.fail("stream replay %d: summary of %d edges after %d reduces (hash %x, first %x)", i, sums[0].M(), reduces[0], h, ir.first)
		return
	}
	ir.secs = append(ir.secs, d)
}

func (ir *ingestReplays) report(rep *report) {
	if len(ir.secs) > 0 {
		rep.set("ingest_edges_per_s", float64(ir.g.M())/median(ir.secs), len(ir.secs))
		rep.setMedian("stream.replay_s", ir.secs)
	}
}
