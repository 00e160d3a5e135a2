package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded from the benchmark's
// own files. IDs are 1-based indexes into tracer.spans; Parent 0 marks
// a root span.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write puts them in a file when the run
// ends. A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begun with id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, which is
// measured whether or not tracing is on.
func (t *tracer) do(name string, op, parent int, fn func()) time.Duration {
	id := t.begin(name, op, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfRow is one span name's total self time and span count.
type selfRow struct {
	Name  string  `json:"name"`
	Self  float64 `json:"self_s"`
	Count int     `json:"count"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its direct children cover. Children of one parent run one
// after another, so their durations do not overlap. Callers hold t.mu.
func (t *tracer) selfTimes() []selfRow {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			child[s.Parent-1] += s.dur()
		}
	}
	byName := map[string]*selfRow{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := byName[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Self += (s.dur() - child[i]).Seconds()
		r.Count++
	}
	rows := make([]selfRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// write saves the spans and the self-time table as JSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Self     []selfRow `json:"self_time"`
		Spans    []span    `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("trace encode: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("trace write: %w", err)
	}
	return path, nil
}
