package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"

	"repro/fsmoe"
	rt "repro/internal/runtime"
	"repro/internal/sim"
)

// lastMetrics is the instrumented stack's telemetry sink: it keeps the
// most recent step's record.
type lastMetrics struct{ m *fsmoe.StepMetrics }

func (l *lastMetrics) OnStep(m *fsmoe.StepMetrics) { l.m = m }

// series collects one value per traced step for each per-layer metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// traced steps a plain stack and an instrumented twin (telemetry sink on,
// spans recorded) alternately on the same inputs, then runs the
// per-layer probes. Both stacks must stay bit-identical to each other
// and to the single-rank reference.
func (b *bench) traced() (*result, error) {
	b.tr = newTracer()
	ckptDir, err := scratchDir(b.opt.out, "ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	plain, _, err := b.setup(nil, filepath.Join(ckptDir, "plain"))
	if err != nil {
		return nil, err
	}
	defer closeStack(plain.ws)
	sink := &lastMetrics{}
	inst, _, err := b.setup(sink, filepath.Join(ckptDir, "traced"))
	if err != nil {
		return nil, err
	}
	defer closeStack(inst.ws)
	b.warm(plain)
	b.warm(inst)
	if err := b.checkReference(plain, inst); err != nil {
		return nil, err
	}

	var plainMS, instMS []float64
	per := series{}
	var ms0, ms1 goruntime.MemStats
	var stats0 fsmoe.CommStats
	b.timedLoop([]*stack{plain, inst}, func(i int, t timing, res *fsmoe.StepResult) {
		if i == 0 {
			plainMS = append(plainMS, t.net)
			sink.m = nil
			// The instrumented stack's allocation and traffic deltas
			// start here, outside its timer.
			stats0 = stackStats(inst.ws)
			goruntime.ReadMemStats(&ms0)
			return
		}
		goruntime.ReadMemStats(&ms1)
		instMS = append(instMS, t.net)
		if res == nil || plain.last == nil {
			return
		}
		if !sameBits(res.RankParams[0], plain.last.RankParams[0]) {
			b.fail("step %d: instrumented stack diverged from the plain one", inst.steps)
		}
		per.add("moe.allocs_per_step", float64(ms1.Mallocs-ms0.Mallocs))
		per.add("moe.alloc_mb_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		st := stackStats(inst.ws)
		per.add("comm.msgs_per_step", float64(st.IntraMessages+st.InterMessages-stats0.IntraMessages-stats0.InterMessages))
		per.add("comm.bytes_per_step", 8*(st.IntraVolume+st.InterVolume-stats0.IntraVolume-stats0.InterVolume))
		b.stepSeries(per, t.wall, res, sink.m)
	})
	b.printFinal(inst)

	metrics := map[string]metric{}
	units := map[string]string{}
	for _, m := range perStepMetrics {
		units[m.name] = m.unit
	}
	for _, k := range sim.Kinds() {
		units["moe.busy_ms."+k] = "ms"
	}
	for name, unit := range units {
		metrics[name] = metric{median(per[name]), unit}
	}
	p50 := median(instMS)
	metrics["trace.overhead_frac"] = metric{p50/median(plainMS) - 1, "ratio"}
	metrics["baseline.single_rank_step_ms"] = metric{median(b.refStepMS), "ms"}
	if err := b.probes(inst, metrics, per, ckptDir); err != nil {
		return nil, err
	}
	b.samples = map[string]int{"plain_steps": len(plainMS), "traced_steps": len(instMS), "reference_steps": len(b.refStepMS)}
	b.tr.printSelfTimes(b.log)
	spans := filepath.Join(b.opt.out, fmt.Sprintf("spans-%s-s%d.json", b.w.name, b.opt.seed))
	if err := b.tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "spans: %d written to %s\n", len(b.tr.spans), spans)
	return b.result(metrics), nil
}

// perStepMetrics are the per-layer metrics read off every instrumented
// step (the per-kind busy times are added from sim.Kinds()).
var perStepMetrics = []struct{ name, unit string }{
	{"moe.forward_ms", "ms"},
	{"moe.backward_ms", "ms"},
	{"moe.host_ms", "ms"},
	{"moe.allocs_per_step", "count"},
	{"moe.alloc_mb_per_step", "MiB"},
	{"moe.drop_frac", "ratio"},
	{"moe.pad_frac", "ratio"},
	{"comm.bytes_per_step", "bytes"},
	{"comm.msgs_per_step", "count"},
	{"runtime.overlap_ratio", "ratio"},
	{"runtime.compute_idle_frac", "ratio"},
	{"gradsync.tail_ms", "ms"},
	{"gradsync.hidden_frac", "ratio"},
	{"gradsync.slices", "count"},
	{"sim.model_over_measured.bwd", "ratio"},
	{"sim.replay_over_measured.bwd", "ratio"},
}

// stackStats sums the stack's cumulative collective traffic.
func stackStats(ws []*fsmoe.World) fsmoe.CommStats {
	var st fsmoe.CommStats
	for _, w := range ws {
		st.Merge(w.Stats())
	}
	return st
}

// stepSeries records what one instrumented step exposes: its result's
// plan makespans, per-kind busy time over the backward traces it
// returns, the gradient-sync report, and the telemetry record.
func (b *bench) stepSeries(per series, wallMS float64, res *fsmoe.StepResult, m *fsmoe.StepMetrics) {
	per.add("moe.forward_ms", res.ForwardMS)
	per.add("moe.backward_ms", res.BackwardMS)
	// The plan makespans are wall clock, so host time is too.
	per.add("moe.host_ms", wallMS-res.ForwardMS-res.BackwardMS-res.TailMS)
	busy := map[string]float64{}
	for _, k := range sim.Kinds() {
		busy[k] = 0
	}
	var measured, model, replay float64
	for i, tr := range res.Traces {
		for _, iv := range tr.Intervals {
			busy[iv.Task.Kind] += iv.Finish - iv.Start
		}
		b.tr.begin("runtime.Plan.Simulate")
		model += res.Plans[i].Simulate().Makespan
		replay += res.Plans[i].SimulateWith(rt.Durations(tr)).Makespan
		b.tr.end()
		measured += tr.Makespan
	}
	for k, v := range busy {
		per.add("moe.busy_ms."+k, v)
	}
	per.add("sim.model_over_measured.bwd", model/measured)
	per.add("sim.replay_over_measured.bwd", replay/measured)

	rep := res.Report
	per.add("gradsync.tail_ms", rep.TailMS)
	per.add("gradsync.hidden_frac", rep.HiddenBytes/(rep.HiddenBytes+rep.TailBytes))
	per.add("gradsync.slices", float64(rep.Slices))
	tasks := 0
	for _, p := range res.Plans {
		tasks += p.Len()
	}
	per.add("runtime.tasks_bwd", float64(tasks))

	if m == nil {
		b.fail("telemetry sink received no record")
		return
	}
	per.add("runtime.overlap_ratio", m.OverlapRatio)
	idle, n := 0.0, 0
	for s, f := range m.StreamBusyFrac {
		if strings.HasPrefix(s, "compute:") {
			idle += 1 - f
			n++
		}
	}
	per.add("runtime.compute_idle_frac", idle/float64(n))
	routed := float64(b.w.layers * b.w.tokens * topK)
	per.add("moe.drop_frac", float64(m.DroppedTokens)/routed)
	slots := float64(b.w.layers * experts * b.w.capacity())
	filled := 0
	for _, layer := range m.ExpertTokens {
		for _, c := range layer {
			filled += c
		}
	}
	per.add("moe.pad_frac", (slots-float64(filled))/slots)
}
