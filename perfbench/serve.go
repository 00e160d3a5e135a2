package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/resistance"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/spanner"
	"repro/internal/stream"
)

// The serve-mixed inputs: the E14 Full g1M sequence and its options.
const (
	serveSeed   = 31 // E14's graph seed: the stream's reduces and serve.QuerySeed
	serveN      = 1 << 13
	serveM      = 1 << 20
	serveBudget = 1 << 18 // epoch cadence, edges
	serveBuffer = 1 << 18 // stream ingest buffer, edges
	serveBatch  = 4096
	serveEps    = 0.5 // sparsify query accuracy; ρ = 0 as in E14
	serveK      = 2   // spanner query levels
	reduceEps   = 0.2 // the server's default per-reduce accuracy

	// Each companion round (see runServeMixed) makes finalReads served
	// sparsify queries of the final epoch and solvesPerRound solves.
	finalReads     = 8
	solvesPerRound = 3

	// queryRate is the open loop's rate, queries per second, and
	// latencyLimitMS the limit a query must meet to count as served in
	// time. Both were calibrated once on a 2-CPU host: at this rate the
	// query connection keeps up with its schedule while the writer
	// streams at full speed; at 2 queries/s one run in five fell behind.
	queryRate      = 1.0
	latencyLimitMS = 2000.0
)

// queryKinds are the kinds a query can be, in the cycle the open loop
// sends them in: E14's readers cycle sparsify, spanner and stat in equal
// shares, and resistance joins them as one more equal share.
var queryKinds = []string{"sparsify", "spanner", "resistance", "stat"}

// progress is one graph of the run and how many of its edges the server
// has acknowledged.
type progress struct {
	name  string
	acked atomic.Int64
}

// serveEdges generates the ingest sequence exactly as E14 does: a
// spanning path, so every published epoch is connected and resistance
// queries are well-posed, then uniform random pairs with weights in
// [0.5, 1.5), drawn by math/rand seeded with n XOR m.
func serveEdges() []graph.Edge {
	r := rand.New(rand.NewSource(int64(serveN) ^ int64(serveM)))
	edges := make([]graph.Edge, 0, serveM)
	for v := 1; v < serveN; v++ {
		edges = append(edges, graph.Edge{U: int32(v - 1), V: int32(v), W: 1})
	}
	for len(edges) < serveM {
		u, v := r.Intn(serveN), r.Intn(serveN)
		if u != v {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(v), W: 0.5 + r.Float64()})
		}
	}
	return edges
}

// rig is an in-process server with its two connections: one writer and
// one query client, so the run holds at most nproc = 2 connections.
type rig struct {
	srv    *serve.Server
	served chan error
	wc, qc *serve.Client
}

func startRig() (*rig, error) {
	srv, err := serve.Listen(serve.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{srv: srv, served: make(chan error, 1)}
	go func() { r.served <- srv.Serve() }()
	if err := r.dial(); err != nil {
		return nil, errors.Join(err, r.stop())
	}
	return r, nil
}

// dial opens the writer and query connections.
func (r *rig) dial() error {
	var err error
	if r.wc, err = serve.Dial(r.srv.Addr()); err == nil {
		r.qc, err = serve.Dial(r.srv.Addr())
	}
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	return nil
}

// hangUp closes both connections; the server keeps its graphs.
func (r *rig) hangUp() {
	for _, c := range []*serve.Client{r.wc, r.qc} {
		if c != nil {
			c.Close()
		}
	}
	r.wc, r.qc = nil, nil
}

// stop closes both connections, drains the server and waits for Serve
// to return.
func (r *rig) stop() error {
	r.hangUp()
	err := r.srv.Shutdown(30 * time.Second)
	if serr := <-r.served; serr != nil && err == nil {
		err = serr
	}
	return err
}

// answer is what the audit keeps of a served query: the epoch it names
// and a bit-exact fingerprint of the result.
type answer struct {
	prefix int64
	hash   uint64
	u, v   int32
	r      float64
}

// writerResult is what the writer goroutine hands back.
type writerResult struct {
	ingestMS, publishMS []float64
	ingestS             float64
	edges               int64
	epochs              int
	last                string
	final               serve.Info
	err                 error
}

// runServeMixed serves while it ingests. One writer connection streams
// E14's g1M sequence (n = 8192, 2^20 edges, update budget and stream
// buffer 2^18, batches of 4096) at full speed in a closed loop, into a
// fresh graph each time the sequence ends, until the run time is up.
// One query connection runs an open loop at queryRate through the fixed
// cycle queryKinds of sparsify(ε=0.5), spanner(k=2), resistance and
// stat, against the newest graph that has published an epoch. Latency
// is timed from when each query was due.
//
// Every graph receives the same sequence under the same options, so the
// epochs of all graphs coincide, and one offline replay audits every
// epoch any query observed plus the final one: the served sparsifier,
// spanner and resistance must equal the offline computation under
// serve.QuerySeed bit for bit.
func runServeMixed(cfg runConfig) *report {
	rep := newReport()
	tr := cfg.trace
	// The served graph is fixed like the other workloads' graphs: the
	// sequence and the graph seed (which drives the stream's reduces and
	// every query through serve.QuerySeed). --seed drives the resistance
	// pairs, the right-hand sides and the quality probes.
	opt := serve.GraphOptions{UpdateBudget: serveBudget, BufferEdges: serveBuffer, ReduceEps: reduceEps, Seed: serveSeed}

	// Set-up: generate the sequence, start the server, dial both
	// connections. The first rig serves the run; every later set-up
	// (each companion round repeats it) must generate the same sequence,
	// and its rig is stopped again, outside the timing.
	var edges []graph.Edge
	var rg *rig
	var su setups
	setUp := func() error {
		var es []graph.Edge
		var r *rig
		var err error
		su.time(func() {
			es = serveEdges()
			r, err = startRig()
		})
		switch {
		case err != nil:
			return err
		case rg == nil:
			rg, edges = r, es
			return nil
		case !sameEdges(es, edges):
			err = fmt.Errorf("set-up %d generated a different sequence", len(su.secs))
		}
		return errors.Join(err, r.stop())
	}
	for i := 0; i < setupFirst; i++ {
		if err := setUp(); err != nil {
			rep.attempted++
			rep.fail("set-up: %v", err)
			if rg == nil {
				return rep
			}
		}
	}
	rep.info["n"], rep.info["m"] = serveN, serveM
	rep.info["query_rate_per_s"], rep.info["latency_limit_ms"] = queryRate, latencyLimitMS
	defer func() {
		if err := rg.stop(); err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("shutdown: %v", err))
		}
	}()

	// The companion passes fill the gated metrics that the open loop
	// cannot measure steadily. The writer runs one round after each
	// graph it completes, while the query loop is paused (it holds gate
	// for each query, and its schedule moves on by the pause), so that
	// their samples span the run without loading the server: finalReads
	// served sparsify queries of the final epoch, timed from send to
	// reply (sparsify_s), setupBetween set-ups, solvesPerRound solves on
	// the final served sparsifier (solve_s), and the spanner query's job
	// distributed over Mesh(P) on that sparsifier (dist_s, wire_bytes),
	// which must equal spanner.Compute on it. Every graph ends at the
	// same final epoch, so every round has the same input.
	var gate sync.Mutex
	var pausedNS atomic.Int64
	var sl solveLayer
	var dl distLayer
	var sparsifyS, solveS, distS, wire []float64
	var fi serve.Info
	var fh, wantSpanner *graph.Graph
	companion := func(k int) error {
		// A set-up dials two connections of its own, so the served rig's
		// two are closed meanwhile: the run never holds more than two.
		rg.hangUp()
		for j := 0; j < setupBetween; j++ {
			if err := setUp(); err != nil {
				rep.attempted++
				rep.fail("set-up: %v", err)
			}
		}
		if err := rg.dial(); err != nil {
			return fmt.Errorf("redial after the set-ups: %w", err)
		}
		for j := 0; j < solvesPerRound; j++ {
			rep.attempted++
			op := k*solvesPerRound + j
			b := gaussianRHS(serveN, opSeed(cfg.seed, op)^0x5bd1e995)
			t := time.Now()
			x, err := solve(tr, &sl, fh, b, opSeed(cfg.seed, op), op, 0)
			d := since(t)
			if err != nil {
				rep.fail("solve %d on the final sparsifier: %v", op, err)
			} else if r := residual(fh, b, x); !(r <= residualTol) {
				rep.fail("solve %d: recomputed residual %g above %g", op, r, residualTol)
			} else {
				solveS = append(solveS, d)
			}
		}

		rep.attempted++
		qseed := serve.QuerySeed(opt.Seed, fi.Epoch)
		if wantSpanner == nil {
			wantSpanner = fh.Subgraph(spanner.Compute(fh, graph.NewAdjacency(fh), nil, spanner.Options{K: serveK, Seed: qseed}).InSpanner)
		}
		res, d, err := runDistSpecs(tr, &dl, fh, cfg.shards, dist.SpannerJob(serveK, qseed), -1-k, 0)
		switch {
		case err != nil:
			rep.fail("dist.Run %d: %v", k, err)
		case !sameEdges(res.Output.G.Edges, wantSpanner.Edges):
			rep.fail("dist.Run %d of the spanner over Mesh(%d) differs from spanner.Compute", k, cfg.shards)
		default:
			distS = append(distS, d)
			wire = append(wire, float64(res.WireBytes))
		}
		return nil
	}

	// The query side's record; observe runs with gate held.
	var latMS, lagMS []float64
	service := map[string][]float64{}
	var staleness []float64
	var tracedLat, plainLat []float64
	seen := map[string]map[uint64]answer{}
	for _, k := range queryKinds {
		seen[k] = map[uint64]answer{}
	}
	queries, misses := 0, 0
	observe := func(kind string, info serve.Info, a answer) {
		a.prefix = info.Prefix
		prev, ok := seen[kind][info.Epoch]
		switch {
		case !ok:
			seen[kind][info.Epoch] = a
		case prev.prefix != a.prefix || (kind != "resistance" && prev.hash != a.hash):
			rep.fail("%s answers for epoch %d disagree (prefix %d vs %d)", kind, info.Epoch, prev.prefix, a.prefix)
		}
	}

	// The writer. target is the newest graph with a published epoch,
	// which sparsify, spanner and resistance query; live is the graph
	// being written, which stat queries, so that every stat meets the
	// writer on the session mutex. After each graph it reads the final
	// epoch's sparsifier and runs a companion round with gate held.
	var target, live atomic.Pointer[progress]
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	writerDone := make(chan writerResult, 1)
	go func() {
		var w writerResult
		defer func() { writerDone <- w }()
		for k := 0; k == 0 || time.Now().Before(deadline); k++ {
			name := fmt.Sprintf("g%d", k)
			cur := &progress{name: name}
			if _, w.err = rg.wc.Open(name, serveN, opt); w.err != nil {
				return
			}
			live.Store(cur)
			var epoch uint64
			start := time.Now()
			for i := 0; i < len(edges); i += serveBatch {
				var info serve.Info
				d := tr.do("serve.Ingest", i/serveBatch, 0, func() {
					info, w.err = rg.wc.Ingest(name, edges[i:min(i+serveBatch, len(edges))])
				})
				if w.err != nil {
					return
				}
				cur.acked.Store(info.Ingested)
				ms := d.Seconds() * 1e3
				w.ingestMS = append(w.ingestMS, ms)
				if info.Epoch != epoch {
					epoch = info.Epoch
					w.publishMS = append(w.publishMS, ms)
					w.epochs++
					target.Store(cur)
				}
			}
			w.ingestS += since(start)
			w.edges += int64(len(edges))
			if w.final, w.err = rg.wc.Flush(name); w.err != nil {
				return
			}

			gate.Lock()
			t := time.Now()
			for j := 0; j < finalReads && w.err == nil; j++ {
				t := time.Now()
				info, h, err := rg.wc.Sparsify(name, serveEps, 0)
				d := since(t)
				switch {
				case err != nil:
					w.err = fmt.Errorf("final sparsify of %s: %w", name, err)
				case info.Epoch != w.final.Epoch || info.Prefix != serveM:
					w.err = fmt.Errorf("final sparsify of %s answered epoch %d prefix %d, want epoch %d prefix %d", name, info.Epoch, info.Prefix, w.final.Epoch, serveM)
				default:
					observe("sparsify", info, answer{hash: hashEdges(h.Edges)})
					sparsifyS = append(sparsifyS, d)
					if fh == nil {
						fi, fh = info, h
					}
				}
			}
			if w.err == nil {
				w.err = companion(k)
			}
			pausedNS.Add(int64(time.Since(t)))
			gate.Unlock()
			if w.err != nil {
				return
			}
		}
	}()

	// The query loop: open, at queryRate, from the first published epoch
	// until the writer is done.
	var w writerResult
	writerRunning := true
	for target.Load() == nil && writerRunning {
		select {
		case w = <-writerDone:
			writerRunning = false
		case <-time.After(time.Millisecond):
		}
	}
	// Query i is due at a uniformly random point of the i-th slot of
	// length 1/queryRate, counted on the clock that stops while the
	// writer pauses the loop: the rate is fixed and the arrivals carry
	// no fixed phase against the writer's reduce cycle to alias with.
	arrivals := rng.New(cfg.seed ^ 0x2545f4914f6cdd1d)
	pairRNG := rng.New(cfg.seed ^ 0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; writerRunning; i++ {
		slot := time.Duration((float64(i) + arrivals.Float64()) / queryRate * float64(time.Second))
		var due time.Time
		for writerRunning {
			due = start.Add(time.Duration(pausedNS.Load()) + slot)
			select {
			case w = <-writerDone:
				writerRunning = false
				continue
			case <-time.After(time.Until(due)):
			}
			gate.Lock()
			if due.Equal(start.Add(time.Duration(pausedNS.Load()) + slot)) {
				break
			}
			gate.Unlock() // a pause moved the schedule on; wait again
		}
		if !writerRunning {
			break
		}
		kind := queryKinds[i%len(queryKinds)]
		qtr := tr
		if (i/len(queryKinds))%2 == 1 {
			qtr = newTracer(false)
		}
		g := target.Load()
		if kind == "stat" {
			g = live.Load()
		}
		name := g.name
		u, v := int32(pairRNG.Intn(serveN)), int32(pairRNG.Intn(serveN))
		for v == u {
			v = int32(pairRNG.Intn(serveN))
		}
		sent := time.Now()
		var err error
		qtr.do("serve."+kind, i, 0, func() {
			var info serve.Info
			switch kind {
			case "sparsify":
				var h *graph.Graph
				if info, h, err = rg.qc.Sparsify(name, serveEps, 0); err == nil {
					observe(kind, info, answer{hash: hashEdges(h.Edges)})
				}
			case "spanner":
				var h *graph.Graph
				if info, h, err = rg.qc.Spanner(name, serveK); err == nil {
					observe(kind, info, answer{hash: hashEdges(h.Edges)})
				}
			case "resistance":
				var r float64
				if info, r, err = rg.qc.Resistance(name, u, v); err == nil {
					observe(kind, info, answer{u: u, v: v, r: r})
				}
			case "stat":
				info, err = rg.qc.Stat(name)
			}
			if err == nil {
				staleness = append(staleness, float64(g.acked.Load()-info.Prefix))
			}
		})
		done := time.Now()
		queries++
		rep.attempted++
		lat := done.Sub(due).Seconds() * 1e3
		lagMS = append(lagMS, sent.Sub(due).Seconds()*1e3)
		switch {
		case err != nil:
			rep.fail("query %d %s on %s: %v", i, kind, name, err)
			misses++
		default:
			if lat > latencyLimitMS {
				misses++
			}
			latMS = append(latMS, lat)
			service[kind] = append(service[kind], done.Sub(sent).Seconds()*1e3)
			if qtr.on {
				tracedLat = append(tracedLat, lat)
			} else {
				plainLat = append(plainLat, lat)
			}
		}
		gate.Unlock()
	}
	rep.attempted++
	if w.err != nil {
		rep.fail("writer: %v", w.err)
		return rep
	}

	rep.setMedian("setup_s", su.secs)
	rep.set("ingest_edges_per_s", float64(w.edges)/w.ingestS, int(w.edges/serveM))
	rep.setMedian("sparsify_s", sparsifyS)
	rep.setMedian("solve_s", solveS)
	rep.setMedian("dist_s", distS)
	rep.setMedian("wire_bytes", wire)
	sl.report(rep)
	dl.report(rep)
	rep.setMedian("query_p50_ms", latMS)
	rep.set("query_p99_ms", percentile(latMS, 0.99), len(latMS))
	rep.set("query_miss_frac", float64(misses)/float64(max(queries, 1)), queries)
	rep.set("loadgen.lag_p99_ms", percentile(lagMS, 0.99), len(lagMS))
	rep.set("serve.ingest_ms_p50", percentile(w.ingestMS, 0.5), len(w.ingestMS))
	rep.set("serve.ingest_ms_p99", percentile(w.ingestMS, 0.99), len(w.ingestMS))
	rep.set("serve.publish_ms_p50", percentile(w.publishMS, 0.5), len(w.publishMS))
	for _, k := range queryKinds {
		rep.set("serve."+k+"_ms_p50", percentile(service[k], 0.5), len(service[k]))
		rep.set("serve."+k+"_ms_p99", percentile(service[k], 0.99), len(service[k]))
	}
	rep.set("serve.epochs", float64(w.epochs), 1)
	rep.set("serve.reduces", float64(w.final.Reduces), 1)
	rep.set("serve.summary_edges", float64(w.final.SummaryM), 1)
	rep.setMedian("serve.staleness_edges", staleness)
	if tr.on && len(plainLat) > 0 {
		rep.set("trace.overhead_frac", median(tracedLat)/median(plainLat)-1, len(tracedLat))
	}
	rep.info["graphs"], rep.info["queries"] = int(w.edges/serveM), queries

	auditServe(rep, cfg, edges, opt, seen, fi, fh)
	return rep
}

// auditServe replays the sequence offline once, snapshotting at every
// audited epoch's prefix, and checks each served answer against the
// offline computation under serve.QuerySeed. It also fills the metrics
// that describe the final served sparsifier.
func auditServe(rep *report, cfg runConfig, edges []graph.Edge, opt serve.GraphOptions, seen map[string]map[uint64]answer, fi serve.Info, fh *graph.Graph) {
	tr := cfg.trace
	final := fi.Epoch
	prefixOf := map[uint64]int64{}
	for _, kind := range queryKinds {
		for e, a := range seen[kind] {
			if p, ok := prefixOf[e]; ok && p != a.prefix {
				rep.fail("epoch %d names prefixes %d and %d", e, p, a.prefix)
				return
			}
			prefixOf[e] = a.prefix
		}
	}
	delete(prefixOf, 0) // the empty epoch has nothing to replay
	epochs := make([]uint64, 0, len(prefixOf))
	for e := range prefixOf {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	marks := make([]int64, len(epochs))
	for i, e := range epochs {
		marks[i] = prefixOf[e]
	}
	rep.attempted++
	t := time.Now()
	sums, _, err := replay(tr, serveN, edges, stream.Options{BufferEdges: opt.BufferEdges, ReduceEps: opt.ReduceEps, Seed: opt.Seed}, marks, -1)
	replayS := since(t)
	if err != nil {
		rep.fail("offline replay: %v", err)
		return
	}
	rep.set("stream.replay_s", replayS, 1)
	rep.info["audited_epochs"] = len(epochs)

	refS := -1.0
	for i, e := range epochs {
		sum := sums[i]
		qseed := serve.QuerySeed(opt.Seed, e)
		if a, ok := seen["sparsify"][e]; ok {
			rep.attempted++
			t := time.Now()
			h, _, err := core.ParallelSparsify(sum, serveEps, 0, core.DefaultConfig(qseed))
			d := since(t)
			if err != nil || hashEdges(h.Edges) != a.hash {
				rep.fail("epoch %d: served sparsifier differs from the offline replay (err %v)", e, err)
			}
			if e == final {
				refS = d
			}
		}
		if a, ok := seen["spanner"][e]; ok {
			rep.attempted++
			res := spanner.Compute(sum, graph.NewAdjacency(sum), nil, spanner.Options{K: serveK, Seed: qseed})
			if hashEdges(sum.Subgraph(res.InSpanner).Edges) != a.hash {
				rep.fail("epoch %d: served spanner differs from the offline replay", e)
			}
		}
		if a, ok := seen["resistance"][e]; ok {
			rep.attempted++
			r, err := resistance.NewSolver(sum).Pair(a.u, a.v)
			if err != nil || math.Float64bits(r) != math.Float64bits(a.r) {
				rep.fail("epoch %d: served resistance(%d,%d) = %v, offline %v (err %v)", e, a.u, a.v, a.r, r, err)
			}
		}
	}
	if refS < 0 {
		rep.fail("final epoch %d was not audited", final)
		return
	}
	rep.set("core.query_ref_ms", refS*1e3, 1)

	// The final served sparsifier against the whole ingested graph.
	g := graph.FromEdges(serveN, edges)
	rep.set("keep_frac", float64(fh.M())/float64(g.M()), 1)
	// The stream guarantees (1 ± ReduceEps) per merge-and-reduce, compounded.
	rep.attempted++
	q := quality(tr, g, fh, cfg.seed, -1, 0)
	if bound := math.Pow(1+reduceEps, float64(fi.Reduces)) - 1; !(maxOf(q) <= bound) {
		rep.fail("final sparsifier: probe ε %g above the stream bound %g", maxOf(q), bound)
	}
	rep.setMedian("quality_eps", q)
}
