package moe

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// wrapInto maps v onto [lo, lo+n): values already inside the range map to
// themselves, so corpus entries read as the configuration they encode.
func wrapInto(v, lo, n int) int { return lo + ((v-lo)%n+n)%n }

// FuzzWorldConfig is the WorldConfig input boundary: over fuzzed rank
// counts, group sizes, pipeline degrees, node shapes, strategies and
// batch sizes on the 8-expert gshard layer, NewWorld either rejects the
// configuration with an error or builds a world whose forward and
// backward pass either fails with an error (dense-slots given a hard
// routing plan) or matches the sequential layer bit for bit. Nothing
// panics. The seed corpus under testdata/fuzz/FuzzWorldConfig covers
// every strategy, hybrid at GroupSize 1 and R, and rejected configs.
func FuzzWorldConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, ranks, group, chunksFwd, chunksBwd, gpn, strat, tokens int) {
		strategies := Strategies()
		cfg := WorldConfig{
			Ranks:       wrapInto(ranks, 1, 8),
			GroupSize:   wrapInto(group, -1, 11),
			ChunksFwd:   wrapInto(chunksFwd, -1, 11),
			ChunksBwd:   wrapInto(chunksBwd, -1, 11),
			GPUsPerNode: wrapInto(gpn, -1, 11),
			Strategy:    strategies[wrapInto(strat, 0, len(strategies))],
		}
		n := wrapInto(tokens, 24, 73)
		label := fmt.Sprintf("%+v tokens=%d", cfg, n)
		layer := worldLayer(t, "gshard", TutelOrder{}, false, false)
		w, err := NewWorld(layer, cfg)
		if err != nil {
			return
		}
		defer w.Close()
		x := tensor.RandN(xrand.New(uint64(n)), 1, n, 32)
		dy := tensor.RandN(xrand.New(uint64(n)+1), 1, n, 32)
		want := runSequentialLayer(t, layer, x, dy)
		layer.ZeroGrad()
		y, cache, err := w.Forward(x, false)
		if err != nil {
			if cfg.Strategy == StrategyDenseSlots {
				return
			}
			t.Fatalf("%s: forward: %v", label, err)
		}
		dx, err := w.Backward(cache, dy)
		if err != nil {
			t.Fatalf("%s: backward: %v", label, err)
		}
		compareSnapshots(t, label, want, worldSnapshot{y: y, dx: dx, grads: snapGrads(layer)})
	})
}
