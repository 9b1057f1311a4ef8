package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// sameBits reports whether x and y hold the same float64 bit patterns.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// The three GEMM layouts gemm serves. A layout names how the left operand
// is stored (N: (m,k), T: its (k,m) transpose) and then the right one
// (N: (k,n), T: its (n,k) transpose).
const (
	layoutNN = iota
	layoutTN
	layoutNT
	numLayouts
)

var layoutNames = [numLayouts]string{"NN", "TN", "NT"}

// gemmCase is one product A·B in every layout: a is (m,k), at its
// transpose, b is (k,n) and bt its transpose.
type gemmCase struct {
	m, k, n      int
	a, at, b, bt *Tensor
}

func newGEMMCase(rng *xrand.RNG, m, k, n int) gemmCase {
	a := RandN(rng, 1, m, k)
	b := RandN(rng, 1, k, n)
	return gemmCase{m: m, k: k, n: n, a: a, at: Transpose2D(a), b: b, bt: Transpose2D(b)}
}

// strided returns gemm's left operand and its (ars, aps) for layout l.
// NT multiplies a by the dense b, which is what MatMulT2Into feeds gemm
// after transposing bt.
func (c gemmCase) strided(l int) (a []float64, ars, aps int) {
	if l == layoutTN {
		return c.at.data, 1, c.m
	}
	return c.a.data, c.k, 1
}

// product runs the public entry point of layout l on pool p into dst.
func (c gemmCase) product(p *Pool, l int, dst *Tensor) {
	switch l {
	case layoutNN:
		p.MatMulInto(dst, c.a, c.b)
	case layoutTN:
		p.MatMulT1Into(dst, c.at, c.b)
	default:
		p.MatMulT2Into(dst, c.a, c.bt)
	}
}

// TestGEMMOneOrder pins gemm's one summation order: every layout of a
// product gives the same bits, the SIMD tiles give the reference kernel's
// bits at every shape and row cut, and a too-short operand panics before
// the tiles read it.
func TestGEMMOneOrder(t *testing.T) {
	rng := xrand.New(5)
	for _, sh := range [][3]int{{1, 1, 1}, {7, 13, 9}, {58, 128, 128}, {97, 131, 89}, {5, 0, 11}} {
		c := newGEMMCase(rng, sh[0], sh[1], sh[2])
		want := New(c.m, c.n)
		c.product(nil, layoutNN, want)
		for l := layoutTN; l < numLayouts; l++ {
			got := New(c.m, c.n)
			c.product(nil, l, got)
			if !sameBits(got.data, want.data) {
				t.Fatalf("%v: %s product differs from NN in the bits", sh, layoutNames[l])
			}
		}
	}

	const sentinel = -7.5
	for _, m := range []int{1, 3, 4, 6, 9, 13} {
		for _, k := range []int{0, 1, 2, 5, 16} {
			for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 33} {
				c := newGEMMCase(rng, m, k, n)
				for l := layoutNN; l < layoutNT; l++ {
					a, ars, aps := c.strided(l)
					for lo := 0; lo <= m; lo++ {
						for hi := lo; hi <= m; hi++ {
							got, ref := make([]float64, m*n), make([]float64, m*n)
							for i := range got {
								got[i], ref[i] = sentinel, sentinel
							}
							gemm(got, a, c.b.data, lo, hi, k, n, ars, aps, n)
							gemmGo(ref, a, c.b.data, lo, hi, k, n, ars, aps, n)
							if !sameBits(got, ref) {
								t.Fatalf("%s m=%d k=%d n=%d rows [%d,%d): gemm differs from the reference",
									layoutNames[l], m, k, n, lo, hi)
							}
						}
					}
				}
			}
		}
	}

	c := newGEMMCase(rng, 8, 5, 16)
	dst := make([]float64, 8*16)
	for _, tc := range []struct {
		name      string
		dst, a, b []float64
	}{
		{"dst", dst[:len(dst)-1], c.a.data, c.b.data},
		{"a", dst, c.a.data[:len(c.a.data)-1], c.b.data},
		{"b", dst, c.a.data, c.b.data[:len(c.b.data)-1]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("short %s: gemm did not panic", tc.name)
				}
			}()
			gemm(tc.dst, tc.a, tc.b, 0, 8, 5, 16, 5, 1, 16)
		}()
	}
}

// TestGEMMPropagatesNonFinite: a zero activation times a weight holding a
// NaN or an Inf is NaN (0·NaN and 0·Inf are both NaN), in every layout.
// A kernel that skips zero operands would return 0 there and hide the bad
// weight.
func TestGEMMPropagatesNonFinite(t *testing.T) {
	const m, k, n = 6, 5, 11
	x := New(m, k) // all zeros
	w := New(k, n)
	w.Set(math.NaN(), 1, 2)  // inside an 8-column tile
	w.Set(math.Inf(1), 3, 9) // in the column edge
	c := gemmCase{m: m, k: k, n: n, a: x, at: Transpose2D(x), b: w, bt: Transpose2D(w)}
	for l := layoutNN; l < numLayouts; l++ {
		got := New(m, n)
		c.product(nil, l, got)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := got.At(i, j)
				if nonFinite := j == 2 || j == 9; nonFinite != math.IsNaN(v) || (!nonFinite && v != 0) {
					t.Fatalf("%s: element (%d,%d) = %v, want NaN in columns 2 and 9 and 0 elsewhere",
						layoutNames[l], i, j, v)
				}
			}
		}
	}
}

// FuzzGEMM: on any shape up to 80 per side, in every layout and at any
// row cut, gemm equals the reference kernel bit for bit, and the public
// entry point equals the reference over the whole product.
func FuzzGEMM(f *testing.F) {
	f.Add(4, 3, 8, layoutNN, 0, 1)
	f.Add(58, 128, 64, layoutTN, 17, 2)
	f.Add(9, 0, 17, layoutNT, 3, 3)
	f.Fuzz(func(t *testing.T, m, k, n, layout, cut, seed int) {
		m, k, n = mod(m, 81), mod(k, 81), mod(n, 81)
		l := mod(layout, numLayouts)
		c := newGEMMCase(xrand.New(uint64(seed)), m, k, n)
		a, ars, aps := c.strided(l)
		lo := 0
		if m > 0 {
			lo = mod(cut, m)
		}
		got, ref := make([]float64, m*n), make([]float64, m*n)
		gemm(got, a, c.b.data, lo, m, k, n, ars, aps, n)
		gemmGo(ref, a, c.b.data, lo, m, k, n, ars, aps, n)
		if !sameBits(got, ref) {
			t.Fatalf("%s m=%d k=%d n=%d rows [%d,%d): gemm differs from the reference", layoutNames[l], m, k, n, lo, m)
		}
		gemmGo(ref, a, c.b.data, 0, m, k, n, ars, aps, n)
		dst := New(m, n)
		c.product(nil, l, dst)
		if !sameBits(dst.data, ref) {
			t.Fatalf("%s m=%d k=%d n=%d: entry point differs from the reference", layoutNames[l], m, k, n)
		}
	})
}

// mod maps any fuzzed int into [0, n).
func mod(x, n int) int { return int(uint(x) % uint(n)) }

// gemmBenchShapes are the per-chunk GEMM shapes (m×k×n) of the perfbench
// workloads: the ESP expert stages and weight gradient, the EP dispatch
// layers and the deep EP stack.
var gemmBenchShapes = []struct {
	name    string
	m, k, n int
}{
	{"esp", 58, 128, 128},
	{"esp", 58, 256, 128},
	{"esp", 256, 116, 128},
	{"ep-dispatch", 154, 256, 16},
	{"ep-dispatch", 308, 16, 256},
	{"ep-deep", 38, 64, 32},
}

// BenchmarkGEMM reports each layout's throughput in GFLOP/s on the
// workloads' chunk shapes, through the public entry points on the default
// pool.
func BenchmarkGEMM(b *testing.B) {
	for _, sh := range gemmBenchShapes {
		c := newGEMMCase(xrand.New(1), sh.m, sh.k, sh.n)
		for l := layoutNN; l < numLayouts; l++ {
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", sh.name, sh.m, sh.k, sh.n, layoutNames[l]), func(b *testing.B) {
				dst := GetUninit(sh.m, sh.n)
				defer Put(dst)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.product(nil, l, dst)
				}
				flops := 2 * float64(sh.m*sh.k*sh.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
