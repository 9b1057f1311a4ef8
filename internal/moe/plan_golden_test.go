package moe

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runtime"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// planGoldenCase is one pinned configuration of TestWorldPlanGolden.
// layers > 1 runs the configuration as a StepWorlds stack, so the §5
// gradient-sync emit points land in the recorded backward plans.
type planGoldenCase struct {
	name    string
	cfg     WorldConfig
	mixtral bool
	layers  int
}

var planGoldenCases = []planGoldenCase{
	{name: "esp-r2-c2-step", cfg: WorldConfig{Ranks: 2, ChunksFwd: 2, Strategy: StrategyESP}, layers: 2},
	{name: "esp-r4-c2-gpn2", cfg: WorldConfig{Ranks: 4, ChunksFwd: 2, GPUsPerNode: 2, Strategy: StrategyESP}, layers: 1},
	{name: "esp-r4-f4b2-mixtral", cfg: WorldConfig{Ranks: 4, ChunksFwd: 4, ChunksBwd: 2, Strategy: StrategyESP}, mixtral: true, layers: 1},
	{name: "hybrid-r4-g2-c2", cfg: WorldConfig{Ranks: 4, ChunksFwd: 2, GroupSize: 2, Strategy: StrategyHybrid}, layers: 1},
	{name: "hybrid-r8-g4-c3", cfg: WorldConfig{Ranks: 8, ChunksFwd: 3, GroupSize: 4, Strategy: StrategyHybrid}, layers: 1},
}

// planGoldenInputs are the fixed batch and output gradient every case
// runs on (96 tokens: the capacity does not divide by R, so the slot
// padding path is in every plan).
func planGoldenInputs() (x, dy *tensor.Tensor) {
	return tensor.RandN(xrand.New(141), 1, 96, 32), tensor.RandN(xrand.New(142), 1, 96, 32)
}

// planLines renders a plan's structure without labels: one
// "ID Kind Stream Est Deps" line per task.
func planLines(b *strings.Builder, title string, p *runtime.Plan) {
	fmt.Fprintf(b, "%s\n", title)
	for _, ti := range p.Tasks() {
		fmt.Fprintf(b, "%d %s %s %.6g %v\n", ti.ID, ti.Kind, ti.Stream, ti.Est, ti.Deps)
	}
}

// planGolden runs one forward and one backward pass of tc and renders
// every plan it built plus each world's collective Stats.
func planGolden(t *testing.T, tc planGoldenCase) string {
	t.Helper()
	x, dy := planGoldenInputs()
	ws := make([]*World, tc.layers)
	for i := range ws {
		w, err := NewWorld(worldLayer(t, "gshard", TutelOrder{}, tc.mixtral, false), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	var b strings.Builder
	if tc.layers == 1 {
		w := ws[0]
		_, cache, err := w.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		planLines(&b, "forward", w.LastPlan())
		if _, err := w.Backward(cache, dy); err != nil {
			t.Fatal(err)
		}
		planLines(&b, "backward", w.LastPlan())
	} else {
		res, err := StepWorlds(ws, x, dy, StepConfig{LR: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.Plans {
			planLines(&b, fmt.Sprintf("backward layer %d", len(ws)-1-i), p)
		}
	}
	for i, w := range ws {
		fmt.Fprintf(&b, "stats layer %d %+v\n", i, w.Stats())
	}
	if tc.layers > 1 {
		// The step's forward plans are not kept; a further forward on the
		// stepped layer has the same structure.
		if _, _, err := ws[0].Forward(x, false); err != nil {
			t.Fatal(err)
		}
		planLines(&b, "forward layer 0", ws[0].LastPlan())
	}
	return b.String()
}

// TestWorldPlanGolden pins the sharded builder's plans task for task (id,
// kind, stream, estimate, dependencies — labels are free to change) and
// the collective traffic they move, for ESP and hybrid configurations.
// The files under testdata/plans are reference outputs recorded before
// ESP became the builder's one-group case; they are not regenerated, so
// any schedule change fails here.
func TestWorldPlanGolden(t *testing.T) {
	for _, tc := range planGoldenCases {
		want, err := os.ReadFile(filepath.Join("testdata", "plans", tc.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		got := planGolden(t, tc)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: line %d differs:\ngolden: %s\ngot:    %s", tc.name, i+1, w, g)
			}
		}
	}
}
