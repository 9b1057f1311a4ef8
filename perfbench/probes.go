package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sync"
	"time"

	"repro/fsmoe"
	"repro/internal/comm"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// probeBudget bounds the repetitions of one probe: it repeats until this
// much time has passed and at least minReps ran, and reports the median.
const (
	probeBudget = 150 * time.Millisecond
	minReps     = 3
)

// repeat times fn until the probe budget is spent and returns the median
// wall milliseconds of one call. Probes are too short for the steal
// correction of the step timings: steal is counted in 10 ms ticks. Every repetition is a span of the given name.
func (b *bench) repeat(name string, fn func() error) (float64, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < minReps || time.Since(start) < probeBudget {
		b.tr.begin(name)
		t0 := time.Now()
		err := fn()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		b.tr.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(ms), nil
}

// probes measures each layer in isolation at the workload's shapes, after
// the timed loop so they cannot disturb it. Each probe is a span group.
func (b *bench) probes(s *stack, metrics map[string]metric, per series, ckptDir string) error {
	if s.last == nil {
		return fmt.Errorf("probes: the instrumented stack completed no step")
	}
	degree, _ := s.ws[0].PipelineDegrees()
	for i, probe := range []func() error{
		func() error { return b.forwardProbe(s, metrics, per) },
		func() error { return b.runtimeProbe(s, metrics) },
		func() error { return b.tensorProbe(degree, metrics) },
		func() error { return b.commProbe(s, degree, metrics) },
		func() error { return b.coreProbe(s, metrics) },
		func() error { return b.ckptProbe(s, metrics, ckptDir) },
	} {
		b.tr.setGroup(-2 - i)
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// forwardProbe runs each layer's World.Forward on its own to read the
// forward stream plans StepStack does not expose: their task count and
// the model's and the replay's makespans against the measured one.
func (b *bench) forwardProbe(s *stack, metrics map[string]metric, per series) error {
	var tasks, model, replay []float64
	for i := 0; i < minReps; i++ {
		cur := b.xs[0]
		var n, mod, rep, meas float64
		for _, w := range s.ws {
			b.tr.begin("fsmoe.World.Forward")
			y, _, err := w.Forward(cur, false)
			b.tr.end()
			if err != nil {
				return fmt.Errorf("forward probe: %w", err)
			}
			p, tr := w.LastPlan(), w.LastTrace()
			n += float64(p.Len())
			b.tr.begin("runtime.Plan.Simulate")
			mod += p.Simulate().Makespan
			rep += p.SimulateWith(rt.Durations(tr)).Makespan
			b.tr.end()
			meas += tr.Makespan
			cur = y
		}
		tasks = append(tasks, n)
		model = append(model, mod/meas)
		replay = append(replay, rep/meas)
	}
	metrics["runtime.tasks_per_step"] = metric{median(tasks) + median(per["runtime.tasks_bwd"]), "count"}
	metrics["sim.model_over_measured.fwd"] = metric{median(model), "ratio"}
	metrics["sim.replay_over_measured.fwd"] = metric{median(replay), "ratio"}
	return nil
}

// runtimeProbe executes empty-task copies of the last step's backward
// plans — same tasks, streams, dependencies and stream bindings, no work
// — and reports the executor's wall time per task.
func (b *bench) runtimeProbe(s *stack, metrics map[string]metric) error {
	var perTask []float64
	start := time.Now()
	for len(perTask) < minReps || time.Since(start) < probeBudget {
		us, tasks := 0.0, 0
		for _, src := range s.last.Plans {
			p := rt.NewPlan()
			for _, t := range src.Tasks() {
				p.Add(t.Label, t.Kind, t.Stream, t.Est, nil, t.Deps...)
			}
			for name, bind := range src.Bindings() {
				p.BindStream(name, bind)
			}
			b.tr.begin("runtime.Plan.Execute")
			t0 := time.Now()
			_, err := p.Execute()
			us += float64(time.Since(t0).Nanoseconds()) / 1e3
			b.tr.end()
			if err != nil {
				return fmt.Errorf("runtime probe: %w", err)
			}
			tasks += p.Len()
		}
		perTask = append(perTask, us/float64(tasks))
	}
	metrics["runtime.task_overhead_us"] = metric{median(perTask), "us"}
	return nil
}

// tensorProbe times the three GEMM entry points at one pipeline chunk of
// one expert's shapes, and a scalar-FMA loop on every core as the ceiling.
func (b *bench) tensorProbe(degree int, metrics map[string]metric) error {
	rows, m, n := b.w.chunkRows(degree), b.w.m, b.w.expertCols()
	flops := 2 * float64(rows) * float64(m) * float64(n)
	seed := derive(b.opt.seed, 99)
	x := fsmoe.RandTensor(seed, rows, m)    // chunk activations
	w := fsmoe.RandTensor(seed+1, m, n)     // expert weight (shard)
	dh := fsmoe.RandTensor(seed+2, rows, n) // hidden gradient
	h, dw, dx := fsmoe.NewTensor(rows, n), fsmoe.NewTensor(m, n), fsmoe.NewTensor(rows, m)
	for _, g := range []struct {
		metric, span string
		fn           func()
	}{
		{"tensor.matmul_gflops", "tensor.MatMulInto", func() { tensor.MatMulInto(h, x, w) }},
		{"tensor.matmul_t1_gflops", "tensor.MatMulT1Into", func() { tensor.MatMulT1Into(dw, x, dh) }},
		{"tensor.matmul_t2_gflops", "tensor.MatMulT2Into", func() { tensor.MatMulT2Into(dx, dh, w) }},
	} {
		ms, err := b.repeat(g.span, func() error { g.fn(); return nil })
		if err != nil {
			return err
		}
		metrics[g.metric] = metric{flops / ms / 1e6, "GFLOP/s"}
	}
	peak := 0.0
	for _, f := range []struct {
		span   string
		chains int
		loop   func(int) float64
	}{{"tensor.fma_peak", 8, fmaLoop}, {"tensor.muladd_peak", 16, mulAddLoop}} {
		ms, err := b.repeat(f.span, func() error { onEveryProc(f.loop); return nil })
		if err != nil {
			return err
		}
		peak = math.Max(peak, 2*float64(f.chains)*peakIters*float64(goruntime.GOMAXPROCS(0))/ms/1e6)
	}
	metrics["tensor.fma_peak_gflops"] = metric{peak, "GFLOP/s"}
	return nil
}

// peakIters is the iteration count of one peak loop.
const peakIters = 1 << 20

// peakSink keeps the peak loops' results alive.
var peakSink float64

// onEveryProc runs loop(peakIters) once per GOMAXPROCS slot and waits.
func onEveryProc(loop func(int) float64) {
	procs := goruntime.GOMAXPROCS(0)
	out := make([]float64, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for p := 0; p < procs; p++ {
		go func(p int) {
			defer wg.Done()
			out[p] = loop(peakIters)
		}(p)
	}
	wg.Wait()
	for _, v := range out {
		peakSink += v
	}
}

// fmaLoop and mulAddLoop are the scalar multiply-add ceilings: fused
// math.FMA (8 independent chains hide its latency) and the separate
// multiply and add the pure-Go kernels compile to (16 chains). The
// faster of the two is the reported peak.
func fmaLoop(iters int) float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const x, y = 0.9999999, 1e-7
	for i := 0; i < iters; i++ {
		a0 = math.FMA(a0, x, y)
		a1 = math.FMA(a1, x, y)
		a2 = math.FMA(a2, x, y)
		a3 = math.FMA(a3, x, y)
		a4 = math.FMA(a4, x, y)
		a5 = math.FMA(a5, x, y)
		a6 = math.FMA(a6, x, y)
		a7 = math.FMA(a7, x, y)
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

func mulAddLoop(iters int) float64 {
	var a [16]float64
	for i := range a {
		a[i] = 1 + float64(i)/10
	}
	x, y := 0.9999999, 1e-7
	for i := 0; i < iters; i++ {
		a[0], a[1], a[2], a[3] = a[0]*x+y, a[1]*x+y, a[2]*x+y, a[3]*x+y
		a[4], a[5], a[6], a[7] = a[4]*x+y, a[5]*x+y, a[6]*x+y, a[7]*x+y
		a[8], a[9], a[10], a[11] = a[8]*x+y, a[9]*x+y, a[10]*x+y, a[11]*x+y
		a[12], a[13], a[14], a[15] = a[12]*x+y, a[13]*x+y, a[14]*x+y, a[15]*x+y
	}
	s := 0.0
	for _, v := range a {
		s += v
	}
	return s
}

// commProbe times each collective on buffers of one pipeline chunk's
// message (the A2A of EP dispatch, the AllGather/ReduceScatter of ESP)
// and a ring AllReduce of one layer's gradient, reporting the bytes the
// collective's own accounting says it moved per second; memcpy of the
// largest of those byte counts is the ceiling.
func (b *bench) commProbe(s *stack, degree int, metrics map[string]metric) error {
	spad := (b.w.capacity() + ranks - 1) / ranks
	tpad := spad * ranks
	rr := comm.SplitRows(spad, degree)[0]
	gradElems := len(s.last.RankParams[0]) / b.w.layers
	a2aDims := comm.BlockDims{Rows: spad, Width: experts / ranks * b.w.m}
	espDims := comm.BlockDims{Rows: spad, Width: experts * b.w.m}
	a2aIn, a2aOut := buffers(ranks*a2aDims.Elems()), buffers(ranks*a2aDims.Elems())
	agIn, agOut := buffers(espDims.Elems()), buffers(tpad*espDims.Width)
	rsIn, rsOut := buffers(tpad*espDims.Width), buffers(espDims.Elems())
	grads := buffers(gradElems)
	largest := 0.0
	for _, c := range []struct {
		name string
		fn   func() (comm.Stats, error)
	}{
		{"comm.alltoall", func() (comm.Stats, error) {
			return comm.AlltoAllRows(comm.A2ADirect, a2aIn, a2aOut, ranks, a2aDims, rr)
		}},
		{"comm.allgather", func() (comm.Stats, error) { return comm.AllGatherRows(agIn, agOut, ranks, espDims, rr) }},
		{"comm.reducescatter", func() (comm.Stats, error) { return comm.ReduceScatterRows(rsIn, rsOut, ranks, espDims, rr) }},
		{"comm.allreduce", func() (comm.Stats, error) {
			return comm.RingAllReduceChunk(grads, ranks, comm.RowRange{Lo: 0, Hi: gradElems})
		}},
	} {
		var st comm.Stats
		ms, err := b.repeat(c.name, func() (err error) { st, err = c.fn(); return err })
		if err != nil {
			return err
		}
		bytes := 8 * (st.IntraVolume + st.InterVolume)
		largest = math.Max(largest, bytes)
		metrics[c.name+"_gbps"] = metric{bytes / ms / 1e6, "GB/s"}
	}
	src, dst := make([]float64, int(largest/8)), make([]float64, int(largest/8))
	ms, err := b.repeat("comm.memcpy", func() error { copy(dst, src); return nil })
	if err != nil {
		return err
	}
	metrics["comm.memcpy_gbps"] = metric{largest / ms / 1e6, "GB/s"}
	return nil
}

// buffers returns one zeroed buffer of n elements per rank.
func buffers(n int) [][]float64 {
	out := make([][]float64, ranks)
	for r := range out {
		out[r] = make([]float64, n)
	}
	return out
}

// coreProbe times the scheduler's two searches on the step's layer
// specs: the §5 gradient partitioning StepStack reruns every step, and
// Algorithm 1 for both phases.
func (b *bench) coreProbe(s *stack, metrics map[string]metric) error {
	models := core.ModelsFromCluster(topology.TestbedA())
	specs := b.w.layerSpecs(len(s.last.RankParams[0]) / b.w.layers)
	var plan *core.GarPlan
	ms, err := b.repeat("core.PartitionGradients", func() error {
		plan = models.PartitionGradients(specs, 16)
		return nil
	})
	if err != nil {
		return err
	}
	if got := s.last.Report.Gar; got == nil || got.TailBytes != plan.TailBytes || got.Overlapped() != plan.Overlapped() {
		b.fail("core probe: rebuilt layer specs do not reproduce the step's gradient plan")
	}
	metrics["core.partition_ms"] = metric{ms, "ms"}
	ms, err = b.repeat("core.FindOptimalPipelineDegree", func() error {
		models.FindOptimalPipelineDegree(specs[0].V, 0, core.Forward, 16)
		models.FindOptimalPipelineDegree(specs[0].V, 0, core.Backward, 16)
		return nil
	})
	if err != nil {
		return err
	}
	metrics["core.degree_search_ms"] = metric{ms, "ms"}
	return nil
}

// ckptProbe times CheckpointManager.Save of the stack's snapshot.
func (b *bench) ckptProbe(s *stack, metrics map[string]metric, ckptDir string) error {
	b.tr.begin("fsmoe.Checkpoint")
	snap := fsmoe.Checkpoint(s.ws)
	b.tr.end()
	mgr := &fsmoe.CheckpointManager{Dir: filepath.Join(ckptDir, "probe"), Keep: 1}
	var path string
	ms, err := b.repeat("ckpt.Manager.Save", func() (err error) { path, err = mgr.Save(snap); return err })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	mb := float64(fi.Size()) / (1 << 20)
	metrics["ckpt.save_ms"] = metric{ms, "ms"}
	metrics["ckpt.snapshot_mb"] = metric{mb, "MiB"}
	metrics["ckpt.save_mbps"] = metric{mb / (ms / 1e3), "MiB/s"}
	return nil
}
