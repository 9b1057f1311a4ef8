package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Name is "<layer>.<function>"; Parent is the index of the
// enclosing span, or -1. Group is shared by every span of one timed
// step: n >= 0 for step n of the timed loop, -1 for set-up and warm-up,
// and -2, -3, ... for the per-layer probes after the loop.
type span struct {
	Name    string  `json:"name"`
	Group   int     `json:"group"`
	Parent  int     `json:"parent"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of indices of spans not yet ended
	group int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), group: -1} }

// setGroup makes later spans belong to group g.
func (t *tracer) setGroup(g int) {
	if t != nil {
		t.group = g
	}
}

// begin opens a span nested in the innermost open one; end closes it.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Group: t.group, Parent: parent, StartMS: t.since()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndMS = t.since()
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// selfTime is one layer's row of the self-time table.
type selfTime struct {
	Layer   string
	Calls   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes sums, per layer (the span name's prefix before the first
// dot), the spans' durations and their self time: duration minus the
// time covered by direct children. Children never overlap because one
// goroutine records them all.
func (t *tracer) selfTimes() []selfTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndMS - s.StartMS
		}
	}
	by := map[string]*selfTime{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		st := by[layer]
		if st == nil {
			st = &selfTime{Layer: layer}
			by[layer] = st
		}
		st.Calls++
		st.TotalMS += s.EndMS - s.StartMS
		st.SelfMS += s.EndMS - s.StartMS - child[i]
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// printSelfTimes writes the self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-10s %7s %12s %12s\n", "layer", "calls", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-10s %7d %12.3f %12.3f\n", st.Layer, st.Calls, st.TotalMS, st.SelfMS)
	}
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
