package core

import (
	"testing"

	"repro/internal/xrand"
)

// Ablation benchmarks for FSMoE's design choices: each pits an FSMoE
// mechanism against its naive replacement on the same workload, so
// `go test -bench=Ablation` quantifies what each piece buys.

// benchVols is a fixed, representative Table-4-like volume set.
func benchVols(n int) []Volumes {
	r := xrand.New(12345)
	out := make([]Volumes, n)
	for i := range out {
		out[i] = randVols(r)
	}
	return out
}

// BenchmarkAblationAdaptiveDegree compares Algorithm 1's adaptive degree
// against the fixed r=4 that a manually tuned system would hardcode.
func BenchmarkAblationAdaptiveDegree(b *testing.B) {
	m := testModels()
	vols := benchVols(50)
	var adaptive, fixed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adaptive, fixed = 0, 0
		for _, v := range vols {
			adaptive += m.FindOptimalPipelineDegree(v, 0, Backward, 16).TMoE
			fixed += m.PipelineTime(v, 0, Backward, 4)
		}
	}
	b.ReportMetric(fixed/adaptive, "fixed/adaptive-time-ratio")
}

// BenchmarkAblationPerPhaseDegree compares per-phase degrees (§4.4)
// against reusing the forward degree for backward (the Tutel/DeepSpeed
// behaviour §2.3 criticizes).
func BenchmarkAblationPerPhaseDegree(b *testing.B) {
	m := testModels()
	vols := benchVols(50)
	var perPhase, shared float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perPhase, shared = 0, 0
		for _, v := range vols {
			fwd := m.FindOptimalPipelineDegree(v, 0, Forward, 16)
			bwd := m.FindOptimalPipelineDegree(v, 0, Backward, 16)
			perPhase += fwd.TMoE + bwd.TMoE
			shared += fwd.TMoE + m.PipelineTime(v, 0, Backward, float64(fwd.R))
		}
	}
	b.ReportMetric(shared/perPhase, "shared/per-phase-time-ratio")
}

// BenchmarkAblationGradientPartitioning compares the §5 adaptive plan
// against a fully exposed tail across a 16-layer model.
func BenchmarkAblationGradientPartitioning(b *testing.B) {
	m := testModels()
	r := xrand.New(99)
	layers := make([]LayerSpec, 16)
	for i := range layers {
		layers[i] = LayerSpec{V: randVols(r)}
	}
	var withPlan, exposed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.SimulateIteration(layers, SystemFSMoE, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		withPlan = res.Total
		stripped := make([]LayerSpec, len(layers))
		total := 0.0
		for j, l := range layers {
			stripped[j] = l
			total += l.V.GradBytes
			stripped[j].V.GradBytes = 0
		}
		bare, err := m.SimulateIteration(stripped, SystemFSMoE, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		exposed = bare.Total + m.TAR(total)
	}
	b.ReportMetric(exposed/withPlan, "exposed/partitioned-time-ratio")
}

// TestAblationRatiosSane pins the ablation directions: each FSMoE
// mechanism must not lose to its naive replacement on the benchmark
// volume set.
func TestAblationRatiosSane(t *testing.T) {
	m := testModels()
	vols := benchVols(60)
	var adaptive, fixed, perPhaseB, sharedB float64
	for _, v := range vols {
		adaptive += m.FindOptimalPipelineDegree(v, 0, Backward, 16).TMoE
		fixed += m.PipelineTime(v, 0, Backward, 4)
		fwd := m.FindOptimalPipelineDegree(v, 0, Forward, 16)
		perPhaseB += m.FindOptimalPipelineDegree(v, 0, Backward, 16).TMoE
		sharedB += m.PipelineTime(v, 0, Backward, float64(fwd.R))
	}
	if adaptive > fixed+1e-9 {
		t.Fatalf("adaptive degrees (%v) lost to fixed r=4 (%v)", adaptive, fixed)
	}
	if perPhaseB > sharedB+1e-9 {
		t.Fatalf("per-phase degrees (%v) lost to shared degrees (%v)", perPhaseB, sharedB)
	}
	if fixed/adaptive < 1.005 {
		t.Logf("note: fixed r=4 nearly optimal on this volume set (ratio %.4f)", fixed/adaptive)
	}
}
