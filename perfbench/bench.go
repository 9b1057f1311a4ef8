package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"repro/fsmoe"
)

const (
	// setupReps is how many times a run builds the stack and takes its
	// cold step; setup_s is their median.
	setupReps = 7
	// warmSteps untimed steps follow the cold one before the single-rank
	// reference check and the timed loop.
	warmSteps = 2
)

// bench holds one run's inputs and tallies.
type bench struct {
	opt      options
	w        workload
	log      io.Writer
	xs, dys  []*fsmoe.Tensor
	tr       *tracer // nil unless the run is traced
	samples  map[string]int
	failures []string
	attempts int

	refStepMS []float64 // warm single-rank reference step times
}

// stack is a built World stack with its own step count.
type stack struct {
	ws    []*fsmoe.World
	cfg   fsmoe.StepConfig
	steps int
	last  *fsmoe.StepResult
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// timing is one timed interval: wall time and wall time net of host
// steal (see steal.go), in ms.
type timing struct{ wall, net float64 }

// step runs the stack's next training step and times it. A step that
// errors or leaves the ranks' parameter replicas unequal counts as
// failed.
func (b *bench) step(s *stack) (timing, *fsmoe.StepResult) {
	i := s.steps % batches
	s.steps++
	b.attempts++
	b.tr.begin("fsmoe.StepStack")
	sw := startWatch()
	res, err := fsmoe.StepStack(s.ws, b.xs[i], b.dys[i], s.cfg)
	var t timing
	t.wall, t.net = sw.stop()
	b.tr.end()
	if err != nil {
		b.fail("step %d: %v", s.steps, err)
		return t, nil
	}
	if r := divergentRank(res.RankParams); r >= 0 {
		b.fail("step %d: rank %d parameters differ from rank 0", s.steps, r)
	}
	s.last = res
	return t, res
}

// divergentRank returns the first rank whose replica is not bit-identical
// to rank 0's, or -1.
func divergentRank(params [][]float64) int {
	for r := 1; r < len(params); r++ {
		if !sameBits(params[r], params[0]) {
			return r
		}
	}
	return -1
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// digest is a short hash of a parameter replica's exact bits.
func digest(params []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range params {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// linearLoss is Σ Y⊙dy, the loss whose gradient the step feeds back.
func linearLoss(y, dy *fsmoe.Tensor) float64 {
	s := 0.0
	for i, v := range y.Data() {
		s += v * dy.Data()[i]
	}
	return s
}

// setup builds a stack and takes its cold step, timing the interval
// from the first NewLayer until that step returned.
func (b *bench) setup(sink fsmoe.Sink, ckptDir string) (*stack, timing, error) {
	sw := startWatch()
	ws, err := b.w.stack(b.opt.seed, ranks, sink)
	if err != nil {
		return nil, timing{}, err
	}
	s := &stack{ws: ws, cfg: b.w.stepConfig(ckptDir)}
	b.step(s)
	var t timing
	t.wall, t.net = sw.stop()
	return s, t, nil
}

// warm takes the untimed warm-up steps.
func (b *bench) warm(s *stack) {
	for i := 0; i < warmSteps; i++ {
		b.step(s)
	}
}

// checkReference steps a plain single-rank, sequential stack with the
// same seed as many times as the given stacks have stepped, and checks
// that every stack's rank-0 replica equals the reference bit for bit.
func (b *bench) checkReference(stacks ...*stack) error {
	ws, err := b.w.stack(b.opt.seed, 1, nil)
	if err != nil {
		return err
	}
	defer closeStack(ws)
	ref := &stack{ws: ws, cfg: fsmoe.StepConfig{LR: learnRate, Strategy: fsmoe.SyncFSMoE, Sequential: true}}
	for ref.steps < stacks[0].steps {
		b.tr.begin("baseline.step")
		t, _ := b.step(ref)
		b.tr.end()
		if ref.steps > 1 {
			b.refStepMS = append(b.refStepMS, t.net)
		}
	}
	if ref.last == nil {
		return fmt.Errorf("single-rank reference failed: %v", b.failures)
	}
	want := digest(ref.last.RankParams[0])
	fmt.Fprintf(b.log, "check: steps=%d digest=%s loss=%.17g\n", ref.steps, want, linearLoss(ref.last.Y, b.dys[(ref.steps-1)%batches]))
	for _, s := range stacks {
		b.attempts++
		if s.last == nil || s.steps != ref.steps {
			b.fail("reference check: stack has no result at step %d", ref.steps)
			continue
		}
		if got := digest(s.last.RankParams[0]); got != want {
			b.fail("reference check: digest %s after %d steps, single-rank reference %s", got, s.steps, want)
		}
	}
	return nil
}

// timedLoop steps the stacks round-robin until the run's seconds are
// spent, calling each(i, t, res) after every step outside the timer.
func (b *bench) timedLoop(stacks []*stack, each func(i int, t timing, res *fsmoe.StepResult)) {
	goruntime.GC()
	deadline := time.Now().Add(time.Duration(b.opt.seconds * float64(time.Second)))
	for n := 0; time.Now().Before(deadline); n++ {
		for i, s := range stacks {
			b.tr.setGroup(n)
			b.tr.begin("bench.step")
			t, res := b.step(s)
			each(i, t, res)
			b.tr.end()
		}
	}
}

func (b *bench) printFinal(s *stack) {
	if s.last == nil {
		return
	}
	fmt.Fprintf(b.log, "final: steps=%d digest=%s loss=%.17g\n", s.steps, digest(s.last.RankParams[0]), linearLoss(s.last.Y, b.dys[(s.steps-1)%batches]))
}

func (b *bench) result(metrics map[string]metric) *result {
	return &result{Correct: len(b.failures) == 0, Attempted: b.attempts, Failed: len(b.failures), Metrics: metrics}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (*result, error) {
	ckptDir, err := scratchDir(b.opt.out, "ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	var s *stack
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			closeStack(s.ws)
		}
		var t timing
		if s, t, err = b.setup(nil, filepath.Join(ckptDir, fmt.Sprint(i))); err != nil {
			return nil, err
		}
		setupS = append(setupS, t.net/1e3)
	}
	defer closeStack(s.ws)
	b.warm(s)
	if err := b.checkReference(s); err != nil {
		return nil, err
	}

	var net, wall []float64
	heap := startHeapSampler()
	b.timedLoop([]*stack{s}, func(_ int, t timing, _ *fsmoe.StepResult) {
		net = append(net, t.net)
		wall = append(wall, t.wall)
	})
	peakHeap := heap.stop()
	b.printFinal(s)
	fmt.Fprintf(b.log, "wall: step_ms_p50=%.4g step_ms_p90=%.4g steal_share=%.4f\n",
		median(wall), quantile(wall, 0.9), 1-sum(net)/sum(wall))
	b.samples = map[string]int{"steps": len(net), "setups": setupReps}
	return b.result(map[string]metric{
		"step_ms_p50":  {median(net), "ms"},
		"step_ms_p90":  {quantile(net, 0.9), "ms"},
		"tokens_per_s": {float64(b.w.tokens*len(net)) / (sum(net) / 1e3), "tokens/s"},
		"setup_s":      {median(setupS), "s"},
		"peak_heap_mb": {float64(peakHeap) / (1 << 20), "MiB"},
	}), nil
}

// scratchDir makes a fresh directory under out for this process.
func scratchDir(out, name string) (string, error) {
	dir := fmt.Sprintf("%s/%s-%d", out, name, os.Getpid())
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
