package moe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// fastRetry keeps the chaos sweeps quick: collective-kind retry with
// microsecond backoffs instead of the World default's milliseconds.
func fastRetry() runtime.RetryPolicy {
	return runtime.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		Jitter:      0.1,
		Kinds:       []string{KindA2A, KindAG, KindRS},
	}
}

// runFaultWorld runs one forward/backward pass under an injector and
// returns the snapshot plus the fault/retry/straggler event counts
// accumulated over both plans.
func runFaultWorld(t *testing.T, l *MOELayer, cfg WorldConfig, fp *fault.Plan, x, dy *tensor.Tensor) (worldSnapshot, map[string]int) {
	t.Helper()
	w, err := NewWorld(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fp)
	w.SetRetry(fastRetry())
	events := map[string]int{}
	count := func() {
		if tr := w.LastTrace(); tr != nil {
			for _, typ := range []string{sim.EventFault, sim.EventRetry, sim.EventStraggler} {
				events[typ] += tr.EventCount(typ)
			}
		}
	}
	l.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	count()
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	count()
	return worldSnapshot{y: y, dx: dx, grads: snapGrads(l)}, events
}

// TestWorldZeroSpecInjector: an installed injector with the zero Spec is
// inert — results stay bit-identical to the sequential reference and no
// fault events reach the trace.
func TestWorldZeroSpecInjector(t *testing.T) {
	x := tensor.RandN(xrand.New(71), 1, 96, 32)
	dy := tensor.RandN(xrand.New(72), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	got, ev := runFaultWorld(t, layer, WorldConfig{Ranks: 4, ChunksFwd: 2}, fault.New(fault.Spec{Seed: 1}), x, dy)
	compareSnapshots(t, "zero-spec", want, got)
	for typ, n := range ev {
		if n != 0 {
			t.Fatalf("zero-spec injector produced %d %s events", n, typ)
		}
	}
}

// TestWorldTransientBitIdentical is the chaos acceptance matrix:
// transient faults injected into every collective kind — at the task
// level (KindProb) and inside the collectives themselves
// (CollectiveProb) — are retried until the pass completes bit-identically
// to the sequential reference, across strategy × R × r. The transient cap
// (2) stays below the retry budget (4 attempts) so recovery is
// guaranteed; the fault events must still be visible on the traces.
func TestWorldTransientBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(73), 1, 96, 32)
	dy := tensor.RandN(xrand.New(74), 1, 96, 32)
	spec := fault.Spec{
		Seed: 99,
		KindProb: map[string]float64{
			KindA2A: 0.4, KindAG: 0.4, KindRS: 0.4,
		},
		CollectiveProb:       0.3,
		MaxTransientsPerTask: 2,
	}
	totalFaults, totalRetries := 0, 0
	for _, strat := range []Strategy{StrategyEP, StrategyESP} {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		want := runSequentialLayer(t, layer, x, dy)
		for _, ranks := range []int{1, 4} {
			for _, r := range []int{1, 2} {
				label := fmt.Sprintf("strategy=%s R=%d r=%d", strat, ranks, r)
				cfg := WorldConfig{Ranks: ranks, ChunksFwd: r, Strategy: strat}
				got, ev := runFaultWorld(t, layer, cfg, fault.New(spec), x, dy)
				compareSnapshots(t, label, want, got)
				totalFaults += ev[sim.EventFault]
				totalRetries += ev[sim.EventRetry]
			}
		}
	}
	if totalFaults == 0 || totalRetries == 0 {
		t.Fatalf("chaos sweep observed %d faults / %d retries; injection never fired", totalFaults, totalRetries)
	}
}

// TestWorldStragglerBitIdentical: straggler delays stretch the schedule
// but never change bytes.
func TestWorldStragglerBitIdentical(t *testing.T) {
	x := tensor.RandN(xrand.New(75), 1, 96, 32)
	dy := tensor.RandN(xrand.New(76), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	fp := fault.New(fault.Spec{Seed: 5, StragglerProb: 0.3, StragglerDelay: 20 * time.Microsecond})
	got, ev := runFaultWorld(t, layer, WorldConfig{Ranks: 4, ChunksFwd: 2}, fp, x, dy)
	compareSnapshots(t, "stragglers", want, got)
	if ev[sim.EventStraggler] == 0 {
		t.Fatal("straggler injection never fired")
	}
}

// TestWorldTransientBitIdenticalHybrid extends the chaos matrix to the
// hybrid EP×ESP strategy: transient faults at the task level and inside
// the group-scoped collectives themselves are retried until the pass
// completes bit-identically, across group widths g ∈ {2, 4}.
func TestWorldTransientBitIdenticalHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(95), 1, 96, 32)
	dy := tensor.RandN(xrand.New(96), 1, 96, 32)
	spec := fault.Spec{
		Seed: 99,
		KindProb: map[string]float64{
			KindA2A: 0.4, KindAG: 0.4, KindRS: 0.4,
		},
		CollectiveProb:       0.3,
		MaxTransientsPerTask: 2,
	}
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	totalFaults, totalRetries := 0, 0
	for _, g := range []int{2, 4} {
		for _, r := range []int{1, 2} {
			label := fmt.Sprintf("strategy=hybrid g=%d r=%d", g, r)
			cfg := WorldConfig{Ranks: 4, ChunksFwd: r, Strategy: StrategyHybrid, GroupSize: g}
			got, ev := runFaultWorld(t, layer, cfg, fault.New(spec), x, dy)
			compareSnapshots(t, label, want, got)
			totalFaults += ev[sim.EventFault]
			totalRetries += ev[sim.EventRetry]
		}
	}
	if totalFaults == 0 || totalRetries == 0 {
		t.Fatalf("hybrid chaos sweep observed %d faults / %d retries; injection never fired", totalFaults, totalRetries)
	}
}

// TestWorldStragglerBitIdenticalHybrid: straggler delays inside the
// hybrid group-scoped schedule stretch the makespan but never the bytes.
func TestWorldStragglerBitIdenticalHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(97), 1, 96, 32)
	dy := tensor.RandN(xrand.New(98), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)
	fp := fault.New(fault.Spec{Seed: 5, StragglerProb: 0.3, StragglerDelay: 20 * time.Microsecond})
	cfg := WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2}
	got, ev := runFaultWorld(t, layer, cfg, fp, x, dy)
	compareSnapshots(t, "hybrid stragglers", want, got)
	if ev[sim.EventStraggler] == 0 {
		t.Fatal("hybrid straggler injection never fired")
	}
}

// TestWorldDegradedHybrid: a permanent rank loss inside the sharded
// builder's schedule — hybrid's group-scoped one and ESP, its one-group
// case — completes on the degraded path deterministically, with the dead
// rank's experts frozen, and leaves the tensor free-list balance where a
// fault-free pass leaves it: the aborted plan's shard state and staging
// go back to the pool. The trigger covers both an expert task and a pack.
func TestWorldDegradedHybrid(t *testing.T) {
	x := tensor.RandN(xrand.New(99), 1, 96, 32)
	dy := tensor.RandN(xrand.New(100), 1, 96, 32)
	for _, tc := range []struct {
		cfg  WorldConfig
		kind string
	}{
		{WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2}, KindExpert},
		{WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2}, KindPack},
		{WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP}, KindExpert},
		{WorldConfig{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP}, KindPack},
	} {
		name := fmt.Sprintf("%s-%s", tc.cfg.Strategy, tc.kind)
		_, clean := collectivePass(t, worldLayer(t, "gshard", TutelOrder{}, false, false), tc.cfg, nil, x, dy)
		run := func() (worldSnapshot, *DegradedResult) {
			layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
			w, err := NewWorld(layer, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.SetFaultPlan(fault.New(fault.Spec{Seed: 9, Down: &fault.Down{Rank: 2, Kind: tc.kind}}))
			layer.ZeroGrad()
			before := tensor.PoolOutstanding()
			_, cache, err := w.Forward(x, false)
			if err != nil {
				t.Fatalf("%s: degraded forward must complete, got %v", name, err)
			}
			if _, err := w.Backward(cache, dy); err != nil {
				t.Fatalf("%s: degraded backward must complete, got %v", name, err)
			}
			if left := tensor.PoolOutstanding() - before; left != clean {
				t.Fatalf("%s: degraded pass left %d free-list buffers outstanding, fault-free pass %d", name, left, clean)
			}
			deg := w.LastDegraded()
			if deg == nil {
				t.Fatalf("%s: no DegradedResult after rank loss", name)
			}
			expectZeroGrads(t, layer, deg.LostExperts, name)
			expectZeroGateGrads(t, layer, name)
			return worldSnapshot{dx: x, y: x, grads: snapGrads(layer)}, deg
		}
		snap, deg := run()
		if deg.Rank != 2 {
			t.Fatalf("%s: degraded rank = %d, want 2", name, deg.Rank)
		}
		if len(deg.LostExperts) == 0 {
			t.Fatalf("%s: no experts reported lost", name)
		}
		snap2, deg2 := run()
		compareSnapshots(t, name+" degraded determinism", snap, snap2)
		if deg2.ReroutedTokens != deg.ReroutedTokens || deg2.DroppedTokens != deg.DroppedTokens {
			t.Fatalf("%s: degraded rerouting not deterministic: %d/%d vs %d/%d",
				name, deg.ReroutedTokens, deg.DroppedTokens, deg2.ReroutedTokens, deg2.DroppedTokens)
		}
	}
}

// expectZeroGrads asserts every parameter gradient of the given experts
// is exactly zero (dead experts are frozen in degraded mode).
func expectZeroGrads(t *testing.T, l *MOELayer, experts []int, label string) {
	t.Helper()
	for _, e := range experts {
		for pi, p := range l.cfg.Experts[e].Params() {
			for _, v := range p.G.Data() {
				if v != 0 {
					t.Fatalf("%s: dead expert %d param %d has non-zero gradient", label, e, pi)
				}
			}
		}
	}
}

func expectZeroGateGrads(t *testing.T, l *MOELayer, label string) {
	t.Helper()
	for pi, p := range l.cfg.Gate.Params() {
		for _, v := range p.G.Data() {
			if v != 0 {
				t.Fatalf("%s: frozen router gate param %d has non-zero gradient", label, pi)
			}
		}
	}
}

// TestWorldDegradedForward: a permanent rank failure during the forward
// plan completes the step degraded instead of aborting — the dead rank's
// tokens are re-routed into surviving experts' capacity, the backward
// pairs with the degraded routing, dead experts and the router accumulate
// no gradient, and the whole degraded pass is deterministic.
func TestWorldDegradedForward(t *testing.T) {
	x := tensor.RandN(xrand.New(81), 1, 96, 32)
	dy := tensor.RandN(xrand.New(82), 1, 96, 32)
	const ranks = 4
	cfg := WorldConfig{Ranks: ranks, ChunksFwd: 2}
	_, clean := collectivePass(t, worldLayer(t, "gshard", TutelOrder{}, false, false), cfg, nil, x, dy)
	run := func() (worldSnapshot, *DegradedResult, []bool) {
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		w, err := NewWorld(layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
		layer.ZeroGrad()
		before := tensor.PoolOutstanding()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatalf("degraded forward must complete, got %v", err)
		}
		deg := w.LastDegraded()
		if deg == nil {
			t.Fatal("no DegradedResult after permanent rank failure")
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatalf("degraded backward must complete, got %v", err)
		}
		// The aborted plan's chunk caches go back to the pool.
		if left := tensor.PoolOutstanding() - before; left != clean {
			t.Fatalf("degraded pass left %d free-list buffers outstanding, fault-free pass %d", left, clean)
		}
		return worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)}, w.LastDegraded(), w.Health()
	}

	snap, deg, health := run()
	if deg.Rank != 1 || deg.Phase != "forward" {
		t.Fatalf("DegradedResult rank/phase = %d/%q, want 1/forward", deg.Rank, deg.Phase)
	}
	egrp := 8 / ranks
	wantLost := lostList(1*egrp, 2*egrp)
	if fmt.Sprint(deg.LostExperts) != fmt.Sprint(wantLost) {
		t.Fatalf("LostExperts = %v, want %v", deg.LostExperts, wantLost)
	}
	if deg.ReroutedTokens+deg.DroppedTokens == 0 {
		t.Fatal("dead rank held no tokens; rerouting never exercised")
	}
	if deg.RecoveryMS <= 0 {
		t.Fatal("RecoveryMS not measured")
	}
	if !strings.Contains(deg.Cause, "permanent") && deg.Cause == "" {
		t.Fatalf("Cause not recorded: %q", deg.Cause)
	}
	for r, ok := range health {
		if want := r != 1; ok != want {
			t.Fatalf("Health()[%d] = %v, want %v", r, ok, want)
		}
	}

	// Determinism: a fresh identically-seeded run reproduces the degraded
	// pass bit-for-bit.
	snap2, deg2, _ := run()
	compareSnapshots(t, "degraded determinism", snap, snap2)
	if deg2.ReroutedTokens != deg.ReroutedTokens || deg2.DroppedTokens != deg.DroppedTokens {
		t.Fatalf("degraded rerouting not deterministic: %d/%d vs %d/%d",
			deg.ReroutedTokens, deg.DroppedTokens, deg2.ReroutedTokens, deg2.DroppedTokens)
	}
}

// TestWorldDegradedForwardFreezes runs the degraded pass on one layer
// instance and asserts the freeze contract: dead experts and the router
// accumulate exactly zero gradient, surviving experts accumulate some.
func TestWorldDegradedForwardFreezes(t *testing.T) {
	x := tensor.RandN(xrand.New(83), 1, 96, 32)
	dy := tensor.RandN(xrand.New(84), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 3, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	deg := w.LastDegraded()
	expectZeroGrads(t, layer, deg.LostExperts, "degraded-forward")
	expectZeroGateGrads(t, layer, "degraded-forward")
	nonzero := false
	for e := 0; e < len(layer.cfg.Experts) && !nonzero; e++ {
		if e >= deg.LostExperts[0] && e <= deg.LostExperts[len(deg.LostExperts)-1] {
			continue
		}
		for _, p := range layer.cfg.Experts[e].Params() {
			for _, v := range p.G.Data() {
				if v != 0 {
					nonzero = true
					break
				}
			}
		}
	}
	if !nonzero {
		t.Fatal("surviving experts accumulated no gradient at all")
	}

	// The rank stays down: the next forward goes straight to the degraded
	// path without building a plan.
	_, cache2, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	deg2 := w.LastDegraded()
	if deg2 == nil || !strings.Contains(deg2.Cause, "still down") {
		t.Fatalf("second forward did not report the standing failure: %+v", deg2)
	}
	if _, err := w.Backward(cache2, dy); err != nil {
		t.Fatal(err)
	}
}

// TestWorldDegradedBackward: a permanent failure during the backward plan
// keeps the full-strength routing, clears the dead experts' gradient
// slots, and completes; ResetHealth then restores bit-identical
// full-strength stepping.
func TestWorldDegradedBackward(t *testing.T) {
	x := tensor.RandN(xrand.New(85), 1, 96, 32)
	dy := tensor.RandN(xrand.New(86), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)

	cfg := WorldConfig{Ranks: 4, ChunksFwd: 2}
	_, clean := collectivePass(t, layer, cfg, nil, x, dy)
	w, err := NewWorld(layer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layer.ZeroGrad()
	before := tensor.PoolOutstanding()
	_, cache, err := w.Forward(x, false) // clean forward at full strength
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultPlan(fault.New(fault.Spec{Seed: 4, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatalf("degraded backward recovery must complete, got %v", err)
	}
	// The aborted backward's unfinished chunk caches go back to the pool.
	if left := tensor.PoolOutstanding() - before; left != clean {
		t.Fatalf("degraded backward left %d free-list buffers outstanding, fault-free pass %d", left, clean)
	}
	if dx == nil {
		t.Fatal("nil input gradient from degraded backward")
	}
	deg := w.LastDegraded()
	if deg == nil || deg.Phase != "backward" || deg.Rank != 1 {
		t.Fatalf("DegradedResult = %+v, want backward-phase rank 1", deg)
	}
	if deg.DroppedTokens == 0 {
		t.Fatal("backward-time failure cleared no slots")
	}
	if deg.ReroutedTokens != 0 {
		t.Fatalf("backward-time failure re-routed %d tokens; routing must be kept", deg.ReroutedTokens)
	}
	expectZeroGrads(t, layer, deg.LostExperts, "degraded-backward")
	expectZeroGateGrads(t, layer, "degraded-backward")

	// Recovery: clear the injector and the health mark, and the world is
	// bit-identical to the sequential reference again.
	w.SetFaultPlan(nil)
	w.ResetHealth()
	layer.ZeroGrad()
	y2, cache2, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastDegraded() != nil {
		t.Fatal("ResetHealth did not clear degraded state")
	}
	dx2, err := w.Backward(cache2, dy)
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "post-reset", want, worldSnapshot{y: y2, dx: dx2, grads: snapGrads(layer)})
}

// TestWorldCloseGuard: Close is idempotent-checked and stepping a closed
// world fails with the typed error.
func TestWorldCloseGuard(t *testing.T) {
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(xrand.New(87), 1, 96, 32)
	if err := w.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := w.Close(); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("double Close error = %v, want ErrWorldClosed", err)
	}
	if _, _, err := w.Forward(x, false); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Forward after Close error = %v, want ErrWorldClosed", err)
	}
	if _, err := w.Backward(&WorldCache{}, x); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("Backward after Close error = %v, want ErrWorldClosed", err)
	}
}

// TestWorldDeadline: an expired per-plan deadline aborts the pass with
// context.DeadlineExceeded; clearing the deadline restores normal
// bit-identical stepping on the same world.
func TestWorldDeadline(t *testing.T) {
	x := tensor.RandN(xrand.New(88), 1, 96, 32)
	dy := tensor.RandN(xrand.New(89), 1, 96, 32)
	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	want := runSequentialLayer(t, layer, x, dy)

	w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	w.SetSequential(true) // the sequential executor polls ctx before every task: deterministic abort
	w.SetDeadline(time.Nanosecond)
	layer.ZeroGrad()
	if _, _, err := w.Forward(x, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Forward under expired deadline = %v, want DeadlineExceeded", err)
	}

	w.SetDeadline(0)
	layer.ZeroGrad()
	y, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := w.Backward(cache, dy)
	if err != nil {
		t.Fatal(err)
	}
	compareSnapshots(t, "post-deadline", want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
}

// TestWorldStepDegraded: a permanent rank failure inside a multi-layer
// §5 training step does not abort it — the degraded layer completes on
// the fallback path, the Gradient-AllReduce still synchronizes every
// layer's gradients (slices parked for the degraded layer's never-built
// plan return to the pool), and the post-step parameter replicas stay
// bit-identical on every rank.
func TestWorldStepDegraded(t *testing.T) {
	const layers, ranks, lr = 2, 4, 0.05
	x := tensor.RandN(xrand.New(91), 1, 96, 32)
	dy := tensor.RandN(xrand.New(92), 1, 96, 32)
	scfg := StepConfig{LR: lr, ChunkBytes: 64 << 10, Slices: 3}
	before := tensor.PoolOutstanding()
	if _, err := StepWorlds(stepStack(t, layers, ranks, 2, false), x, dy, scfg); err != nil {
		t.Fatal(err)
	}
	clean := tensor.PoolOutstanding() - before

	ws := stepStack(t, layers, ranks, 2, false)
	ws[0].SetFaultPlan(fault.New(fault.Spec{Seed: 6, Down: &fault.Down{Rank: 1, Kind: KindExpert}}))
	before = tensor.PoolOutstanding()
	res, err := StepWorlds(ws, x, dy, scfg)
	if err != nil {
		t.Fatalf("degraded step must complete, got %v", err)
	}
	if left := tensor.PoolOutstanding() - before; left != clean {
		t.Fatalf("degraded step left %d free-list buffers outstanding, fault-free step %d", left, clean)
	}
	if len(res.Degraded) != 1 {
		t.Fatalf("res.Degraded has %d entries, want 1", len(res.Degraded))
	}
	deg := res.Degraded[0]
	if deg.Rank != 1 || deg.Phase != "forward" {
		t.Fatalf("DegradedResult rank/phase = %d/%q, want 1/forward", deg.Rank, deg.Phase)
	}
	if deg.RecoveryMS <= 0 || res.BackwardMS < deg.RecoveryMS {
		t.Fatalf("RecoveryMS %v not charged into BackwardMS %v", deg.RecoveryMS, res.BackwardMS)
	}
	if len(res.RankParams) != ranks {
		t.Fatalf("%d replicas, want %d", len(res.RankParams), ranks)
	}
	for r := 1; r < ranks; r++ {
		for k := range res.RankParams[0] {
			if res.RankParams[r][k] != res.RankParams[0][k] {
				t.Fatalf("rank %d param %d diverges from rank 0 after degraded step", r, k)
			}
		}
	}
	if total := res.Report.HiddenBytes + res.Report.TailBytes; total != res.Report.TotalBytes {
		t.Fatalf("synced %v of %v bytes across the degraded step", total, res.Report.TotalBytes)
	}

	// The healthy layer must still have stepped its dead-rank-free
	// parameters with real gradients; the degraded layer's dead experts
	// must be frozen (stepped by exactly zero).
	if hs := ws[0].Health(); hs[1] {
		t.Fatal("rank 1 still reported healthy after the degraded step")
	}
}

// TestWorldEveryCollectiveGuarded is the behavioural form of the
// guarded-collective rule. With every in-collective guard failing its
// first attempt and no task-level injection, each A2A/AG/RS task of a
// forward/backward pass must record exactly one fault: a collective that
// reaches comm without its guard records none. The faulted pass must
// also leave the tensor free-list balance where a fault-free pass leaves
// it, so no retried collective strands its staging. Elastic recovery's
// weight broadcasts are covered the same way: one retry per moved expert.
func TestWorldEveryCollectiveGuarded(t *testing.T) {
	x := tensor.RandN(xrand.New(131), 1, 96, 32)
	dy := tensor.RandN(xrand.New(132), 1, 96, 32)
	spec := fault.Spec{Seed: 1, CollectiveProb: 1, MaxTransientsPerTask: 1}
	for _, cfg := range []WorldConfig{
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyEP},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyESP},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyHybrid, GroupSize: 2},
		{Ranks: 4, ChunksFwd: 2, Strategy: StrategyDenseSlots},
	} {
		layer := strategyLayer(t, cfg.Strategy, false)
		_, cleanLeft := collectivePass(t, layer, cfg, nil, x, dy)
		traces, faultedLeft := collectivePass(t, layer, cfg, fault.New(spec), x, dy)
		if faultedLeft != cleanLeft {
			t.Errorf("%s: faulted pass left %d free-list buffers outstanding, fault-free pass %d",
				cfg.Strategy, faultedLeft, cleanLeft)
		}
		for phase, tr := range traces {
			faults := map[int]int{}
			for _, ev := range tr.Events {
				if ev.Type == sim.EventFault {
					faults[ev.TaskID]++
				}
			}
			colls := 0
			for _, iv := range tr.Intervals {
				switch iv.Task.Kind {
				case KindA2A, KindAG, KindRS:
				default:
					continue
				}
				colls++
				if n := faults[iv.Task.ID]; n != 1 {
					t.Errorf("%s %s: collective task %s (%s) recorded %d guard faults, want 1",
						cfg.Strategy, []string{"forward", "backward"}[phase], iv.Task.Label, iv.Task.Kind, n)
				}
			}
			if colls == 0 {
				t.Fatalf("%s: pass %d traced no collective tasks", cfg.Strategy, phase)
			}
		}
	}

	layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
	w, err := NewWorld(layer, WorldConfig{Ranks: 4, ChunksFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	down := spec
	down.Down = &fault.Down{Rank: 1, Kind: KindExpert}
	w.SetFaultPlan(fault.New(down))
	w.SetRetry(fastRetry())
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Recover(snap, RecoveryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedExperts) == 0 || rep.Retries != len(rep.MovedExperts) {
		t.Fatalf("recovery retried %d broadcasts for %d moved experts, want one each", rep.Retries, len(rep.MovedExperts))
	}
}

// collectivePass runs one forward/backward pass on a fresh world under fp
// and returns both plans' traces plus the change in the free-list
// balance (tensor.PoolOutstanding) across the pass.
func collectivePass(t *testing.T, layer *MOELayer, cfg WorldConfig, fp *fault.Plan, x, dy *tensor.Tensor) ([]*sim.Trace, int64) {
	t.Helper()
	w, err := NewWorld(layer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetFaultPlan(fp)
	w.SetRetry(fastRetry())
	before := tensor.PoolOutstanding()
	layer.ZeroGrad()
	_, cache, err := w.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	fwd := w.LastTrace()
	if _, err := w.Backward(cache, dy); err != nil {
		t.Fatal(err)
	}
	return []*sim.Trace{fwd, w.LastTrace()}, tensor.PoolOutstanding() - before
}
