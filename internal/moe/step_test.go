package moe

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gradsync"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// stepStack builds L identical-seeded layers (per gate construction in
// worldLayer) wrapped in Worlds. Rebuilding with the same arguments
// always yields bit-identical initial parameters.
func stepStack(t *testing.T, layers, ranks, chunks int, wrap bool) []*World {
	t.Helper()
	ws := make([]*World, layers)
	for i := 0; i < layers; i++ {
		l := worldLayer(t, "gshard", TutelOrder{}, false, wrap)
		w, err := NewWorld(l, WorldConfig{Ranks: ranks, ChunksFwd: chunks})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// refStep runs the sequential single-rank reference: forward/backward
// through L MOELayers and an SGD step, returning the flattened post-step
// parameters in the stack's GradElems layout.
func refStep(t *testing.T, layers []*MOELayer, x, dy *tensor.Tensor, lr float64) []float64 {
	t.Helper()
	caches := make([]*LayerCache, len(layers))
	cur := x
	for i, l := range layers {
		l.ZeroGrad()
		y, c, err := l.Forward(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
		cur = y
	}
	dcur := dy
	for i := len(layers) - 1; i >= 0; i-- {
		dx, err := layers[i].Backward(caches[i], dcur)
		if err != nil {
			t.Fatal(err)
		}
		dcur = dx
	}
	var flat []float64
	for _, l := range layers {
		for _, p := range l.Params() {
			wd, gd := p.W.Data(), p.G.Data()
			for k := range wd {
				flat = append(flat, wd[k]-lr*gd[k])
			}
		}
	}
	return flat
}

// TestWorldStepBitIdentical is the §5 acceptance matrix: World.Step (via
// StepWorlds) must leave every rank with bit-identical post-step
// parameter replicas — equal across ranks, across all three strategies,
// across (R, r), and equal to the sequential single-rank reference step.
// The token count makes the per-expert capacity (30) indivisible by R=4,
// exercising the slot-padding path.
func TestWorldStepBitIdentical(t *testing.T) {
	const layers, lr = 2, 0.05
	x := tensor.RandN(xrand.New(61), 1, 96, 32)
	dy := tensor.RandN(xrand.New(62), 1, 96, 32)

	refLayers := make([]*MOELayer, layers)
	for i := range refLayers {
		refLayers[i] = worldLayer(t, "gshard", TutelOrder{}, false, false)
	}
	want := refStep(t, refLayers, x, dy, lr)

	strategies := []gradsync.Strategy{
		gradsync.StrategyFSMoE, gradsync.StrategyFixedChunk, gradsync.StrategyNoOverlap,
	}
	for _, ranks := range []int{1, 4} {
		for _, chunks := range []int{1, 3} {
			for _, strat := range strategies {
				label := fmt.Sprintf("R=%d r=%d strategy=%s", ranks, chunks, strat)
				ws := stepStack(t, layers, ranks, chunks, false)
				res, err := StepWorlds(ws, x, dy, StepConfig{
					LR: lr, Strategy: strat, ChunkBytes: 64 << 10, Slices: 3,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(res.RankParams) != ranks {
					t.Fatalf("%s: %d replicas, want %d", label, len(res.RankParams), ranks)
				}
				for r := 1; r < ranks; r++ {
					for k := range res.RankParams[0] {
						if res.RankParams[r][k] != res.RankParams[0][k] {
							t.Fatalf("%s: rank %d param %d diverges from rank 0", label, r, k)
						}
					}
				}
				if len(res.RankParams[0]) != len(want) {
					t.Fatalf("%s: %d params, reference has %d", label, len(res.RankParams[0]), len(want))
				}
				for k := range want {
					if res.RankParams[0][k] != want[k] {
						t.Fatalf("%s: param %d = %v, reference %v", label, k, res.RankParams[0][k], want[k])
					}
				}
				total := res.Report.HiddenBytes + res.Report.TailBytes
				if total != res.Report.TotalBytes {
					t.Fatalf("%s: synced %v of %v bytes", label, total, res.Report.TotalBytes)
				}
			}
		}
	}
}

// TestWorldStepFallbackExperts: the whole-block fallback path (custom
// experts without the chunked contract) steps to the same parameters.
func TestWorldStepFallbackExperts(t *testing.T) {
	const lr = 0.1
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	ref := []*MOELayer{worldLayer(t, "gshard", TutelOrder{}, false, true)}
	want := refStep(t, ref, x, dy, lr)
	ws := stepStack(t, 1, 4, 2, true)
	if ws[0].Chunked() {
		t.Fatal("wrapped experts must route through the fallback path")
	}
	res, err := ws[0].Step(x, dy, StepConfig{LR: lr})
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if res.RankParams[0][k] != want[k] {
			t.Fatalf("fallback param %d = %v, reference %v", k, res.RankParams[0][k], want[k])
		}
	}
}

// TestWorldStepOverlapStructure: with the adaptive strategy over multiple
// layers, AllReduce tasks must actually appear inside earlier layers'
// backward plans, interleaved on the inter stream — not only in the tail.
func TestWorldStepOverlapStructure(t *testing.T) {
	const layers = 3
	x := tensor.RandN(xrand.New(81), 1, 96, 32)
	dy := tensor.RandN(xrand.New(82), 1, 96, 32)
	ws := stepStack(t, layers, 4, 2, false)
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.01, Strategy: gradsync.StrategyFSMoE})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HiddenBytes <= 0 {
		t.Fatalf("adaptive step hid nothing: %+v", res.Report)
	}
	arTasks := 0
	for _, tr := range res.Traces {
		for _, iv := range tr.Intervals {
			if iv.Task.Kind == gradsync.KindAllReduce {
				if iv.Task.Stream != "inter" {
					t.Fatalf("AllReduce slice on stream %q, want inter", iv.Task.Stream)
				}
				arTasks++
			}
		}
	}
	if arTasks == 0 {
		t.Fatal("no AllReduce tasks embedded in any backward plan")
	}
	if arTasks != res.Report.Slices {
		t.Fatalf("%d AllReduce tasks in traces, report says %d", arTasks, res.Report.Slices)
	}
	// The no-overlap strategy on an identical stack must expose everything.
	ws2 := stepStack(t, layers, 4, 2, false)
	res2, err := StepWorlds(ws2, x, dy, StepConfig{LR: 0.01, Strategy: gradsync.StrategyNoOverlap})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.HiddenBytes != 0 || res2.Report.TailBytes != res2.Report.TotalBytes {
		t.Fatalf("no-overlap report: %+v", res2.Report)
	}
}

// TestSyncWorlds: the blocking entry point reconstructs the accumulated
// layer gradients bit-exactly on every rank.
func TestSyncWorlds(t *testing.T) {
	x := tensor.RandN(xrand.New(91), 1, 96, 32)
	dy := tensor.RandN(xrand.New(92), 1, 96, 32)
	ws := stepStack(t, 1, 4, 2, false)
	w := ws[0]
	w.layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	rep, err := SyncWorlds(ws, StepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, p := range w.layer.Params() {
		want = append(want, p.G.Data()...)
	}
	for r, g := range rep.LayerGrads[0] {
		for k := range want {
			if g[k] != want[k] {
				t.Fatalf("rank %d grad %d = %v, accumulated %v", r, k, g[k], want[k])
			}
		}
	}
	if rep.Report.TailBytes != rep.Report.TotalBytes {
		t.Fatalf("standalone sync must be all tail: %+v", rep.Report)
	}
}

// TestStepScopesExecutorAndTrainMode: Step's sequential-executor override
// is scoped to the step (the caller's mode is restored), every rank still
// agrees within a run, and the Train knob reaches the gate.
func TestStepScopesExecutorAndTrainMode(t *testing.T) {
	x := tensor.RandN(xrand.New(97), 1, 96, 32)
	dy := tensor.RandN(xrand.New(98), 1, 96, 32)
	ws := stepStack(t, 2, 4, 2, false)
	ws[0].SetSequential(false)
	ws[1].SetSequential(true)
	res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.01, Sequential: true, Train: true})
	if err != nil {
		t.Fatal(err)
	}
	if ws[0].seq || !ws[1].seq {
		t.Fatal("step must restore each world's executor mode")
	}
	for r := 1; r < len(res.RankParams); r++ {
		for k := range res.RankParams[0] {
			if res.RankParams[r][k] != res.RankParams[0][k] {
				t.Fatalf("train-mode step: rank %d param %d diverges", r, k)
			}
		}
	}
}

// TestStepWorldsRejects covers step validation.
func TestStepWorldsRejects(t *testing.T) {
	x := tensor.RandN(xrand.New(95), 1, 96, 32)
	dy := tensor.RandN(xrand.New(96), 1, 96, 32)
	if _, err := StepWorlds(nil, x, dy, StepConfig{}); err == nil {
		t.Fatal("empty stack must fail")
	}
	mixed := append(stepStack(t, 1, 4, 1, false), stepStack(t, 1, 2, 1, false)...)
	if _, err := StepWorlds(mixed, x, dy, StepConfig{}); err == nil {
		t.Fatal("mismatched rank counts must fail")
	}
	ws := stepStack(t, 1, 4, 1, false)
	if _, err := StepWorlds(ws, x, dy, StepConfig{Strategy: "warp-drive"}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

// TestWorldStepPlanOnce: stepping a deep stack whose shapes never change
// runs the §5 partition search once, and every step still reports the
// plan a fresh PartitionGradients over the stack's live volumes gives.
func TestWorldStepPlanOnce(t *testing.T) {
	const layers, ranks, steps = 8, 2, 3
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	ws := stepStack(t, layers, ranks, 2, false)

	specs := make([]core.LayerSpec, layers)
	cur := x
	for i, w := range ws {
		y, c, err := w.Forward(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = core.LayerSpec{V: stepVolumes(w, c.tpad)}
		cur = y
	}
	cfg := StepConfig{LR: 0.01, RMax: 16}.withDefaults()
	want := cfg.Models.PartitionGradients(specs, cfg.RMax)

	for k := 0; k < steps; k++ {
		res, err := StepWorlds(ws, x, dy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Report.Gar, want) {
			t.Fatalf("step %d plan %+v, fresh partition %+v", k, res.Report.Gar, want)
		}
	}
	if n := ws[0].planner.Runs(); n != 1 {
		t.Fatalf("%d steps planned %d times, want 1", steps, n)
	}
}
