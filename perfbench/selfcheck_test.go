package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-check compares against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryWorkloadReportsItsMetrics runs each workload briefly, untraced
// and traced, and checks that the run is correct and prints exactly the
// metrics BENCHMARK.json names, each with its unit.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("steps every workload")
	}
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for trace, want := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				out := t.TempDir()
				var stdout bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", strconv.Itoa(trace), "--out", out}
				if err := run(args, &stdout); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, line := range []string{"fail_ratio", "stamp ", "check: steps="} {
					if !strings.Contains(stdout.String(), line) {
						t.Errorf("output lacks %q", line)
					}
				}
				if trace == 1 {
					if _, err := os.Stat(filepath.Join(out, "spans-"+w.Name+"-s7.json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.step", Parent: -1, StartMS: 0, EndMS: 10},
		{Name: "fsmoe.StepStack", Parent: 0, StartMS: 1, EndMS: 7},
		{Name: "runtime.Plan.Simulate", Parent: 0, StartMS: 8, EndMS: 9},
	}}
	got := map[string]selfTime{}
	for _, st := range tr.selfTimes() {
		got[st.Layer] = st
	}
	if got["bench"].SelfMS != 3 || got["bench"].TotalMS != 10 || got["fsmoe"].SelfMS != 6 || got["runtime"].SelfMS != 1 {
		t.Fatalf("self times %+v", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median %v, want 2.5", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-3.7) > 1e-12 {
		t.Fatalf("p90 %v, want 3.7", q)
	}
}
