package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/graph"
)

// runDist is the distributed sparsifier on its own: a closed loop where
// each operation runs dist.Run(NewEngine(Mesh(P), G), SparsifyJob(1, 4,
// DefaultConfig(seed))) on G(2048, 160/2048) drawn with graphSeed. The round engine and the
// socket transport do all the timed work.
//
// Every operation is checked edge for edge against core.ParallelSparsify
// on the same seed; that reference run is timed as sparsify_s. The
// sparsifier is then solved on (solve_s, outside the dist timing) so the
// distributed output is used the way the pipeline uses core's. When
// tracing, each operation also runs on Mem() and Sharded(P), and the
// three ledgers must agree.
func runDist(cfg runConfig) *report {
	// solvesPerOp right-hand sides are solved per operation: one solve
	// takes a tenth of a second, too short to time alone.
	const eps, rho, solvesPerOp = 1.0, 4.0, 3
	rep := newReport()
	tr := cfg.trace

	var g *graph.Graph
	var su setups
	setUp := graphSetup(rep, &su, &g, func() *graph.Graph { return gen.Gnp(2048, 160.0/2048, graphSeed) })
	repeat(setupFirst, setUp)
	ir := ingestReplays{g: g, seed: cfg.seed}
	rep.info["n"], rep.info["m"], rep.info["eps"], rep.info["rho"] = g.N, g.M(), eps, rho

	var cl coreLayer
	var sl solveLayer
	var dl distLayer
	var distS, wire, sparsifyS, solveS, keep, eps0 []float64
	var tracedMesh, plainMesh []float64
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
		rep.attempted++
		seed := opSeed(cfg.seed, i)
		// Traced runs alternate traced and plain operations, so the
		// traced Mesh time can be compared with the plain one.
		ptr := tr
		if i%2 == 1 {
			ptr = newTracer(false)
		}
		root := ptr.begin("dist.op", i, 0)
		res, d, err := runDistSpecs(ptr, &dl, g, cfg.shards, dist.SparsifyJob(eps, rho, core.DefaultConfig(seed)), i, root)
		ptr.end(root)
		if err != nil {
			rep.fail("op %d: %v", i, err)
			continue
		}
		if ptr.on {
			tracedMesh = append(tracedMesh, d)
		} else {
			plainMesh = append(plainMesh, d)
		}
		t := time.Now()
		ref, err := sparsify(ptr, &cl, g, eps, rho, core.DefaultConfig(seed), i, 0)
		refS := since(t)
		if err != nil {
			rep.fail("op %d core reference: %v", i, err)
			continue
		}
		h := res.Output
		if !sameEdges(h.Edges, ref.Edges) {
			rep.fail("op %d: dist.Run over Mesh(%d) differs from core.ParallelSparsify", i, cfg.shards)
			continue
		}
		var solveD []float64
		for j := 0; j < solvesPerOp; j++ {
			rep.attempted++
			b := gaussianRHS(g.N, seed^uint64(j+1)*0x5bd1e995)
			t = time.Now()
			x, err := solve(ptr, &sl, h, b, seed, i, 0)
			d := since(t)
			if err != nil {
				rep.fail("op %d solve %d: %v", i, j, err)
			} else if r := residual(h, b, x); !(r <= residualTol) {
				rep.fail("op %d solve %d: recomputed residual %g above %g", i, j, r, residualTol)
			} else {
				solveD = append(solveD, d)
			}
		}
		q := quality(ptr, g, h, seed, i, 0)
		switch {
		case len(solveD) < solvesPerOp:
			// already counted as failed
		case !(maxOf(q) <= eps):
			rep.fail("op %d: probe ε %g above the requested %g", i, maxOf(q), eps)
		case h.M() >= g.M():
			rep.fail("op %d: sparsifier kept %d of %d edges", i, h.M(), g.M())
		default:
			distS = append(distS, d)
			wire = append(wire, float64(res.WireBytes))
			sparsifyS = append(sparsifyS, refS)
			solveS = append(solveS, solveD...)
			keep = append(keep, float64(h.M())/float64(g.M()))
			eps0 = append(eps0, q...)
		}
	}
	between()
	rep.setMedian("dist_s", distS)
	rep.setMedian("wire_bytes", wire)
	rep.setMedian("sparsify_s", sparsifyS)
	rep.setMedian("solve_s", solveS)
	rep.setMedian("keep_frac", keep)
	rep.setMedian("quality_eps", eps0)
	lat := make([]float64, len(distS))
	for i, d := range distS {
		lat[i] = d * 1e3
	}
	rep.setMedian("query_p50_ms", lat)
	rep.set("query_p99_ms", percentile(lat, 0.99), len(lat))

	rep.setMedian("setup_s", su.secs)
	ir.report(rep)

	dl.coreRefS = sparsifyS
	cl.report(rep)
	sl.report(rep)
	dl.report(rep)
	if tr.on && len(plainMesh) > 0 {
		rep.set("trace.overhead_frac", median(tracedMesh)/median(plainMesh)-1, len(tracedMesh))
	}
	return rep
}
