package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one advisory operation
// share Op; Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs take the same code path.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; spans begun afterwards carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// do runs fn inside a span named name, nested in the span now open.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent})
	t.stack = append(t.stack, id)
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].StartUS = start.Seconds() * 1e6
	t.spans[id].EndUS = end.Seconds() * 1e6
	return err
}

// mark is the position a round starts at, for selfTimes.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes returns, for the spans recorded since from, each name's
// self time in microseconds — a span's duration minus its children's —
// summed per operation, one entry per operation the name occurred in.
func (t *tracer) selfTimes(from int) map[string][]float64 {
	self := make([]float64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[i] += s.EndUS - s.StartUS
		if s.Parent >= from {
			self[s.Parent] -= s.EndUS - s.StartUS
		}
	}
	type key struct {
		name string
		op   int
	}
	perOp := map[key]float64{}
	var order []key
	for i := from; i < len(t.spans); i++ {
		k := key{t.spans[i].Name, t.spans[i].Op}
		if _, ok := perOp[k]; !ok {
			order = append(order, k)
		}
		perOp[k] += self[i]
	}
	out := map[string][]float64{}
	for _, k := range order {
		out[k.name] = append(out[k.name], perOp[k])
	}
	return out
}

// traceFile is what a traced run leaves behind.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      environment        `json:"env"`
	SelfUS   map[string]float64 `json:"median_self_us_per_op"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir string, f traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f.Spans = t.spans
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+f.Workload+".json"), data, 0o644)
}
