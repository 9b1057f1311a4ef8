package comm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/xrand"
)

// groupShapes enumerates the rank subsets the byte-identity tests sweep:
// a singleton, a contiguous block, a strided lane, the full world listed
// explicitly, and nil (every rank) — the group shapes the hybrid strategy
// actually uses (intra-group collectives on contiguous blocks,
// inter-group AlltoAll on strided lanes) plus both degenerate sizes and
// the monolithic handle the EP/ESP builders use.
func groupShapes(n int) [][]int {
	shapes := [][]int{{n / 2}}
	contig := make([]int, 0, n/2)
	for r := 0; r < n/2; r++ {
		contig = append(contig, r)
	}
	if len(contig) > 0 {
		shapes = append(shapes, contig)
	}
	strided := make([]int, 0, n/2)
	for r := 1; r < n; r += 2 {
		strided = append(strided, r)
	}
	if len(strided) > 0 {
		shapes = append(shapes, strided)
	}
	full := make([]int, n)
	for r := range full {
		full[r] = r
	}
	return append(shapes, full, nil)
}

// TestGroupCollectivesMatchMonolithic: every Comm method is byte-identical
// to the free collective run on standalone copies of the members'
// buffers, across group shapes (Members nil included), chunk tilings and
// uneven row splits — and never touches a non-member buffer.
func TestGroupCollectivesMatchMonolithic(t *testing.T) {
	r := xrand.New(41)
	const n = 8 // global ranks
	for _, group := range groupShapes(n) {
		p := len(group)
		member := make(map[int]bool, n)
		for _, g := range group {
			member[g] = true
		}
		if group == nil {
			p = n
			for g := 0; g < n; g++ {
				member[g] = true
			}
		}
		sub := func(all [][]float64) [][]float64 {
			if group == nil {
				return all
			}
			s := make([][]float64, p)
			for k, g := range group {
				s[k] = all[g]
			}
			return s
		}
		for _, dims := range []BlockDims{
			{Rows: 6, Width: 3}, // rows not divisible by most chunk counts
			{Rows: 4, Width: 5},
		} {
			blk := dims.Elems()
			checkOthers := func(label string, before, after [][]float64) {
				t.Helper()
				for g := 0; g < n; g++ {
					if !member[g] && !worldsEqual([][]float64{before[g]}, [][]float64{after[g]}) {
						t.Fatalf("%s: group %v touched non-member rank %d", label, group, g)
					}
				}
			}

			for _, chunks := range []int{1, 2, 3} {
				// AlltoAll over the subset, every algorithm, tiled.
				for _, algo := range []A2AAlgo{A2ADirect, A2A1DH, A2A2DH} {
					if p%2 != 0 && algo != A2ADirect {
						continue // hierarchical algos need an even node split
					}
					gpn := p
					if algo != A2ADirect {
						gpn = p / 2
					}
					c := Comm{Members: group, GPN: gpn}
					data := randWorld(r, n, p*blk)
					snap := cloneWorld(data)
					out := randWorld(r, n, p*blk)
					outSnap := cloneWorld(out)
					wantOut := cloneWorld(sub(outSnap))
					for _, rr := range SplitRows(dims.Rows, chunks) {
						if _, err := c.AlltoAllRows(algo, data, out, dims, rr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := AlltoAllRows(algo, cloneWorld(sub(snap)), wantOut, gpn, dims, RowRange{0, dims.Rows}); err != nil {
						t.Fatal(err)
					}
					if !worldsEqual(sub(out), wantOut) {
						t.Fatalf("Comm.AlltoAllRows(%s) group %v chunks %d differs from monolithic", algo, group, chunks)
					}
					checkOthers("Comm.AlltoAllRows", snap, data)
					checkOthers("Comm.AlltoAllRows(out)", outSnap, out)
				}

				c := Comm{Members: group, GPN: p}

				// AllGatherRows over the subset, tiled.
				{
					data := randWorld(r, n, blk)
					snap := cloneWorld(data)
					out := randWorld(r, n, p*blk)
					outSnap := cloneWorld(out)
					wantOut := cloneWorld(sub(out))
					for _, rr := range SplitRows(dims.Rows, chunks) {
						if _, err := c.AllGatherRows(data, out, dims, rr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := AllGatherRows(cloneWorld(sub(snap)), wantOut, p, dims, RowRange{0, dims.Rows}); err != nil {
						t.Fatal(err)
					}
					if !worldsEqual(sub(out), wantOut) {
						t.Fatalf("Comm.AllGatherRows group %v chunks %d differs from monolithic", group, chunks)
					}
					checkOthers("Comm.AllGatherRows", snap, data)
					checkOthers("Comm.AllGatherRows(out)", outSnap, out)
				}

				// ReduceScatterRows over the subset, tiled. Summation order
				// must match the monolithic ring exactly (bitwise, not just
				// numerically).
				{
					data := randWorld(r, n, p*blk)
					snap := cloneWorld(data)
					out := randWorld(r, n, blk)
					outSnap := cloneWorld(out)
					wantOut := cloneWorld(sub(out))
					for _, rr := range SplitRows(dims.Rows, chunks) {
						if _, err := c.ReduceScatterRows(data, out, dims, rr); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := ReduceScatterRows(cloneWorld(sub(snap)), wantOut, p, dims, RowRange{0, dims.Rows}); err != nil {
						t.Fatal(err)
					}
					if !worldsEqual(sub(out), wantOut) {
						t.Fatalf("Comm.ReduceScatterRows group %v chunks %d differs from monolithic", group, chunks)
					}
					checkOthers("Comm.ReduceScatterRows", snap, data)
					checkOthers("Comm.ReduceScatterRows(out)", outSnap, out)
				}
			}

			c := Comm{Members: group, GPN: p}

			// Ring AllGather into staging over the subset (the
			// hidden-exchange path).
			{
				data := randWorld(r, n, p*blk)
				snap := cloneWorld(data)
				out := randWorld(r, n, p*p*blk)
				outSnap := cloneWorld(out)
				if _, err := c.AllGatherInto(out, data); err != nil {
					t.Fatal(err)
				}
				want := make([][]float64, p)
				for i := range want {
					want[i] = make([]float64, p*p*blk)
				}
				if _, err := RingAllGatherInto(want, cloneWorld(sub(snap)), p); err != nil {
					t.Fatal(err)
				}
				if !worldsEqual(sub(out), want) {
					t.Fatalf("Comm.AllGatherInto group %v differs from monolithic", group)
				}
				checkOthers("Comm.AllGatherInto", snap, data)
				checkOthers("Comm.AllGatherInto(out)", outSnap, out)
			}

			// Broadcast from every group position over the subset.
			for root := 0; root < p; root++ {
				data := randWorld(r, n, blk)
				snap := cloneWorld(data)
				if _, err := c.Broadcast(data, root); err != nil {
					t.Fatal(err)
				}
				want := cloneWorld(sub(snap))
				if _, err := Broadcast(want, root, p); err != nil {
					t.Fatal(err)
				}
				if !worldsEqual(sub(data), want) {
					t.Fatalf("Comm.Broadcast group %v root %d differs from monolithic", group, root)
				}
				checkOthers("Comm.Broadcast", snap, data)
			}
		}
	}
}

// commCall is one Comm method over freshly drawn buffers: setup sizes
// them for a p-member collective over n global ranks and returns the call
// plus every buffer it may write.
type commCall struct {
	name  string
	setup func(r *xrand.RNG, n, p int) (call func(Comm) (Stats, error), bufs [][]float64)
}

// commCalls lists every Comm method.
func commCalls() []commCall {
	dims := BlockDims{Rows: 2, Width: 3}
	rr := RowRange{Lo: 0, Hi: dims.Rows}
	blk := dims.Elems()
	return []commCall{
		{"AlltoAllRows", func(r *xrand.RNG, n, p int) (func(Comm) (Stats, error), [][]float64) {
			data, out := randWorld(r, n, p*blk), randWorld(r, n, p*blk)
			return func(c Comm) (Stats, error) { return c.AlltoAllRows(A2ADirect, data, out, dims, rr) }, append(data, out...)
		}},
		{"AllGatherRows", func(r *xrand.RNG, n, p int) (func(Comm) (Stats, error), [][]float64) {
			data, out := randWorld(r, n, blk), randWorld(r, n, p*blk)
			return func(c Comm) (Stats, error) { return c.AllGatherRows(data, out, dims, rr) }, append(data, out...)
		}},
		{"ReduceScatterRows", func(r *xrand.RNG, n, p int) (func(Comm) (Stats, error), [][]float64) {
			data, out := randWorld(r, n, p*blk), randWorld(r, n, blk)
			return func(c Comm) (Stats, error) { return c.ReduceScatterRows(data, out, dims, rr) }, append(data, out...)
		}},
		{"AllGatherInto", func(r *xrand.RNG, n, p int) (func(Comm) (Stats, error), [][]float64) {
			data, out := randWorld(r, n, blk), randWorld(r, n, p*blk)
			return func(c Comm) (Stats, error) { return c.AllGatherInto(out, data) }, append(data, out...)
		}},
		{"Broadcast", func(r *xrand.RNG, n, p int) (func(Comm) (Stats, error), [][]float64) {
			data := randWorld(r, n, blk)
			return func(c Comm) (Stats, error) { return c.Broadcast(data, p-1) }, data
		}},
	}
}

// guardedScopes are the member sets the guard tests run every method
// under: the monolithic handle and a strided group.
var guardedScopes = [][]int{nil, {0, 2}}

const guardRanks = 4 // global ranks in the guard tests

func scopeSize(members []int) int {
	if members == nil {
		return guardRanks
	}
	return len(members)
}

// TestGuardedAbortsBeforeMutation: a failing guard aborts every Comm
// method, monolithic or scoped, with every buffer untouched — the
// property that makes retrying a guarded collective bit-safe.
func TestGuardedAbortsBeforeMutation(t *testing.T) {
	boom := errors.New("boom")
	for _, cc := range commCalls() {
		for _, members := range guardedScopes {
			call, bufs := cc.setup(xrand.New(1), guardRanks, scopeSize(members))
			snap := cloneWorld(bufs)
			c := Comm{Members: members, GPN: 2, Guard: func() error { return boom }}
			if _, err := call(c); !errors.Is(err, boom) {
				t.Fatalf("%s members %v: guard error not surfaced: %v", cc.name, members, err)
			}
			if !worldsEqual(bufs, snap) {
				t.Fatalf("%s members %v: buffers mutated despite guard abort", cc.name, members)
			}
		}
	}
}

// TestGuardedNilAndPass: nil and passing guards are transparent — every
// method produces the exact bytes and stats of the unguarded call.
func TestGuardedNilAndPass(t *testing.T) {
	pass := Guard(func() error { return nil })
	for _, cc := range commCalls() {
		for _, members := range guardedScopes {
			p := scopeSize(members)
			call, want := cc.setup(xrand.New(3), guardRanks, p)
			wantSt, err := call(Comm{Members: members, GPN: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []Guard{nil, pass} {
				call, got := cc.setup(xrand.New(3), guardRanks, p)
				st, err := call(Comm{Members: members, GPN: 2, Guard: g})
				if err != nil {
					t.Fatal(err)
				}
				if !worldsEqual(got, want) || st != wantSt {
					t.Fatalf("%s members %v: guarded call diverged from unguarded", cc.name, members)
				}
			}
		}
	}
}

// TestGroupGuarded: every method runs its guard exactly once per call —
// the one-attempt-per-invocation contract fault.Plan guards count on —
// and a malformed scope behind a passing guard still fails before any
// byte moves.
func TestGroupGuarded(t *testing.T) {
	for _, cc := range commCalls() {
		calls := 0
		count := Guard(func() error { calls++; return nil })
		call, _ := cc.setup(xrand.New(47), guardRanks, 2)
		if _, err := call(Comm{Members: []int{0, 2}, GPN: 2, Guard: count}); err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Fatalf("%s: guard ran %d times per call, want 1", cc.name, calls)
		}
		call, bufs := cc.setup(xrand.New(47), guardRanks, 2)
		snap := cloneWorld(bufs)
		if _, err := call(Comm{Members: []int{2, 2}, GPN: 2, Guard: count}); err == nil {
			t.Fatalf("%s: duplicate member accepted", cc.name)
		}
		if !worldsEqual(bufs, snap) {
			t.Fatalf("%s: rejected scope touched the buffers", cc.name)
		}
	}
}

// TestGroupValidation: malformed members fail fast with buffers
// untouched, on every method.
func TestGroupValidation(t *testing.T) {
	for _, cc := range commCalls() {
		for _, bad := range [][]int{{}, {-1}, {guardRanks}, {0, 0}, {1, 3, 1}} {
			call, bufs := cc.setup(xrand.New(43), guardRanks, max(len(bad), 1))
			snap := cloneWorld(bufs)
			if _, err := call(Comm{Members: bad, GPN: 2}); err == nil {
				t.Fatalf("%s: group %v must be rejected", cc.name, bad)
			}
			if !worldsEqual(bufs, snap) {
				t.Fatalf("%s: rejected group %v touched the buffers", cc.name, bad)
			}
		}
	}
}

// TestGuardFromFaultPlan: a fault.Plan guard composes with every method —
// transient with buffers untouched until the cap, then a clean retry
// that matches the unguarded bytes.
func TestGuardFromFaultPlan(t *testing.T) {
	fp := fault.New(fault.Spec{Seed: 5, CollectiveProb: 1, MaxTransientsPerTask: 1})
	for i, cc := range commCalls() {
		for _, members := range guardedScopes {
			label := fmt.Sprintf("%s members %v", cc.name, members)
			p := scopeSize(members)
			call, want := cc.setup(xrand.New(4), guardRanks, p)
			if _, err := call(Comm{Members: members, GPN: 2}); err != nil {
				t.Fatal(err)
			}
			call, got := cc.setup(xrand.New(4), guardRanks, p)
			snap := cloneWorld(got)
			c := Comm{Members: members, GPN: 2, Guard: fp.Guard("intra", "AllGather", i)}
			if _, err := call(c); !fault.IsTransient(err) {
				t.Fatalf("%s: first attempt not transient: %v", label, err)
			}
			if !worldsEqual(got, snap) {
				t.Fatalf("%s: transient failure mutated the buffers", label)
			}
			if _, err := call(c); err != nil {
				t.Fatalf("%s: retry past cap failed: %v", label, err)
			}
			if !worldsEqual(got, want) {
				t.Fatalf("%s: retried call diverged from unguarded", label)
			}
		}
	}
}
