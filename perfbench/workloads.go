package main

import (
	"fmt"

	"repro/fsmoe"
	"repro/internal/core"
	"repro/internal/moe"
)

// Settings every workload shares: E=8 experts, top-2 GShard gating at
// capacity factor 1.2, two in-process ranks, and the §5 adaptive
// gradient synchronization.
const (
	experts   = 8
	topK      = 2
	capFactor = 1.2
	ranks     = 2
	learnRate = 1e-5
	// batches is how many distinct (x, dy) pairs a run cycles through;
	// step s feeds batch s mod batches.
	batches = 4
)

// workload is one stack shape the benchmark steps. Why each exists, and
// which layer it loads, is recorded in BENCHMARK.json.
type workload struct {
	name      string
	strategy  fsmoe.Strategy
	layers    int
	m, h      int // token embedding and expert hidden width
	tokens    int // batch tokens N
	degree    int // pipeline degree r; 0 lets Algorithm 1 choose
	ckptEvery int // checkpoint cadence in steps; 0 = never
}

var workloads = []workload{
	{name: "esp-compute", strategy: fsmoe.StrategyESP, layers: 2, m: 128, h: 256, tokens: 384, degree: 2, ckptEvery: 5},
	{name: "ep-dispatch", strategy: fsmoe.StrategyEP, layers: 2, m: 256, h: 16, tokens: 1024, degree: 4},
	{name: "ep-deep", strategy: fsmoe.StrategyEP, layers: 8, m: 64, h: 32, tokens: 256},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// derive maps the workload seed and a tag to an independent sub-seed
// (splitmix64), so layer parameters and inputs never share a stream.
func derive(seed uint64, tag ...uint64) uint64 {
	z := seed
	for _, t := range tag {
		z += 0x9e3779b97f4a7c15 ^ t*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	if z == 0 {
		z = 1
	}
	return z
}

const (
	tagLayer = iota + 1
	tagX
	tagDY
)

// inputs returns the run's batches, generated from the seed alone.
func (w workload) inputs(seed uint64) (xs, dys []*fsmoe.Tensor) {
	for b := uint64(0); b < batches; b++ {
		xs = append(xs, fsmoe.RandTensor(derive(seed, tagX, b), w.tokens, w.m))
		dys = append(dys, fsmoe.RandTensor(derive(seed, tagDY, b), w.tokens, w.m))
	}
	return xs, dys
}

// stack builds the workload's layers and wraps each in a World of the
// given rank count. The single-rank reference stack runs plain EP at
// degree 1; every strategy and degree is bit-identical to it.
func (w workload) stack(seed uint64, rankCount int, sink fsmoe.Sink) ([]*fsmoe.World, error) {
	ws := make([]*fsmoe.World, w.layers)
	for i := range ws {
		l, err := fsmoe.NewLayer(fsmoe.LayerConfig{
			M: w.m, H: w.h, Experts: experts, TopK: topK, CapacityFactor: capFactor,
			Gate: fsmoe.GateGShard, Expert: fsmoe.ExpertGPT, Seed: derive(seed, tagLayer, uint64(i)),
		})
		if err != nil {
			closeStack(ws)
			return nil, err
		}
		cfg := fsmoe.WorldConfig{Ranks: rankCount, Strategy: w.strategy, PipelineDegree: w.degree, BatchTokens: w.tokens, Sink: sink}
		if rankCount == 1 {
			cfg = fsmoe.WorldConfig{Ranks: 1, Strategy: fsmoe.StrategyEP, PipelineDegree: 1}
		}
		if ws[i], err = fsmoe.NewWorld(l, cfg); err != nil {
			closeStack(ws)
			return nil, err
		}
	}
	return ws, nil
}

func closeStack(ws []*fsmoe.World) {
	for _, w := range ws {
		if w != nil {
			_ = w.Close() // a second Close only reports ErrWorldClosed
		}
	}
}

// stepConfig is the StepStack configuration of the workload; ckptDir is
// where the checkpointing workload writes its snapshots.
func (w workload) stepConfig(ckptDir string) fsmoe.StepConfig {
	cfg := fsmoe.StepConfig{LR: learnRate, Strategy: fsmoe.SyncFSMoE}
	if w.ckptEvery > 0 {
		cfg.Checkpoint = &fsmoe.CheckpointManager{Dir: ckptDir, Keep: 2}
		cfg.CheckpointEvery = w.ckptEvery
	}
	return cfg
}

// capacity is the per-expert slot count the GShard gate allots a batch.
func (w workload) capacity() int { return moe.CapacityFor(w.tokens, experts, topK, capFactor) }

// chunkRows is the token-row count of one pipeline chunk on one rank's
// expert: every rank's first row range of its padded capacity share
// (comm.SplitRows puts the remainder rows in the first chunks).
func (w workload) chunkRows(degree int) int {
	spad := (w.capacity() + ranks - 1) / ranks
	return ranks * ((spad + degree - 1) / degree)
}

// expertCols is the hidden width one rank computes per expert: the full
// width under EP, a 1/R column shard under ESP.
func (w workload) expertCols() int {
	if w.strategy == fsmoe.StrategyESP {
		return w.h / ranks
	}
	return w.h
}

// layerSpecs rebuilds the §5 layer specs StepStack hands the gradient
// partitioner (moe.stepVolumes) from the workload shape: per-rank A2A
// wire bytes of the padded capacity, per-rank expert MACs, and the
// layer's fp32 gradient bytes.
func (w workload) layerSpecs(gradElems int) []core.LayerSpec {
	const actElemBytes, gradElemBytes = 2, 4
	spad := (w.capacity() + ranks - 1) / ranks
	tpad := spad * ranks
	wire := float64(tpad*(experts/ranks)*w.m) * actElemBytes
	v := core.Volumes{
		NA2A: wire, NAG: wire, NRS: wire,
		ExpMACs:   experts * 2 * float64(tpad) * float64(w.m) * float64(w.h) / ranks,
		ExpGEMMs:  2,
		DenseFwd:  0.1,
		DenseBwd:  0.2,
		GradBytes: float64(gradElems) * gradElemBytes,
	}
	specs := make([]core.LayerSpec, w.layers)
	for i := range specs {
		specs[i] = core.LayerSpec{V: v}
	}
	return specs
}
