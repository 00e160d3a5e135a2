// Command perfbench is the repository's benchmark: one process that
// runs one workload for a fixed time, checks every output, and prints
// one JSON result line.
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists and what it feeds):
//
//	pipeline     core.ParallelSparsify then solver.SolveLaplacian on an image affinity graph
//	dist         dist.Run of the sparsify job over Mesh(P) on G(n,p)
//	serve-mixed  an in-process serve.Server: one writer streams edges while one
//	             query connection runs an open loop of sparsify/spanner/resistance/stat
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around its calls into each module. The last line of
// standard output is the result; the line before it is the provenance
// (Go version, CPUs, seed, input size, sample counts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// endToEnd lists the metrics a --trace 0 run prints, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sparsify_s", "s"},
	{"keep_frac", "ratio"},
	{"quality_eps", "eps"},
	{"solve_s", "s"},
	{"dist_s", "s"},
	{"wire_bytes", "bytes"},
	{"ingest_edges_per_s", "edges/s"},
}

// perLayer lists the metrics a --trace 1 run prints. A layer the
// workload does not call reports 0.
var perLayer = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"fail_frac", "ratio"},
	{"query_miss_frac", "ratio"},
	{"core.round_s", "s"},
	{"core.rounds", "count"},
	{"core.bundle_t", "count"},
	{"core.bundle_frac", "ratio"},
	{"core.identity_rounds", "ratio"},
	{"core.alloc_mb", "MB"},
	{"core.query_ref_ms", "ms"},
	{"solver.chain_build_s", "s"},
	{"solver.chain_depth", "count"},
	{"solver.chain_nnz", "count"},
	{"solver.sparsified_levels", "count"},
	{"solver.alloc_mb", "MB"},
	{"linalg.cg_s", "s"},
	{"linalg.cg_iters", "count"},
	{"dist.mem_s", "s"},
	{"dist.sharded_s", "s"},
	{"dist.socket_s", "s"},
	{"dist.core_ref_s", "s"},
	{"dist.rounds", "count"},
	{"dist.messages", "count"},
	{"dist.words", "count"},
	{"dist.wire_bytes", "bytes"},
	{"dist.data_wire_bytes", "bytes"},
	{"dist.bytes_per_word", "bytes/word"},
	{"dist.peak_view_words", "words"},
	{"serve.ingest_ms_p50", "ms"},
	{"serve.ingest_ms_p99", "ms"},
	{"serve.publish_ms_p50", "ms"},
	{"serve.sparsify_ms_p50", "ms"},
	{"serve.sparsify_ms_p99", "ms"},
	{"serve.spanner_ms_p50", "ms"},
	{"serve.spanner_ms_p99", "ms"},
	{"serve.resistance_ms_p50", "ms"},
	{"serve.resistance_ms_p99", "ms"},
	{"serve.stat_ms_p50", "ms"},
	{"serve.stat_ms_p99", "ms"},
	{"serve.epochs", "count"},
	{"serve.reduces", "count"},
	{"serve.summary_edges", "count"},
	{"serve.staleness_edges", "count"},
	{"stream.replay_s", "s"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   *tracer
	shards  int // P: transport shards and connections, at most the CPU count
}

// report is what a workload hands back: operation counts, check
// failures, metric values, and the sample count behind each.
type report struct {
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
	samples   map[string]int
	info      map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, info: map[string]any{}}
}

// fail records an operation that failed or whose output was wrong.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// setMedian records the median of xs.
func (r *report) setMedian(name string, xs []float64) {
	r.set(name, median(xs), len(xs))
}

var workloads = map[string]func(runConfig) *report{
	"pipeline":    runPipeline,
	"dist":        runDist,
	"serve-mixed": runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "pipeline, dist or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 25, "how long the workload's loop runs")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   newTracer(*traceFlag == 1),
		shards:  min(2, runtime.NumCPU()),
	}
	rep := run(cfg)
	rss, err := peakRSSMB()
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	rep.set("peak_rss_mb", rss, 1)
	if rep.attempted > 0 {
		rep.set("fail_frac", float64(rep.failed)/float64(rep.attempted), rep.attempted)
	}
	defs := endToEnd
	if cfg.trace.on {
		defs = perLayer
		path, err := cfg.trace.write(".bench_build/traces", *workload, *seed)
		if err != nil {
			rep.problems = append(rep.problems, err.Error())
		} else {
			rep.info["trace_file"] = path
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	metrics := map[string]any{}
	samples := map[string]int{}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !cfg.trace.on {
			rep.problems = append(rep.problems, "no value for "+d.name)
			fmt.Fprintln(os.Stderr, "perfbench: FAIL: no value for", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		samples[d.name] = rep.samples[d.name]
	}
	prov := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traceFlag,
		"shards":     cfg.shards,
		"samples":    samples,
	}
	for k, v := range rep.info {
		prov[k] = v
	}
	printJSON(map[string]any{"provenance": prov})
	printJSON(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": max(rep.attempted, 1),
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}
