package tensor

// useAVX2 reports whether the CPU executes AVX2 and the operating system
// saves the YMM registers across context switches — the two conditions
// under which gemm4x8 may run.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX (upper YMM) state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX=0 (XCR0).
func xgetbv() (eax, edx uint32)

// gemm4x8 computes the 4-row block of dst = A·B at d over the first 8·nt
// columns, one 4×8 tile at a time, in gemm's summation order (VMULPD then
// VADDPD, never FMA). a points at A(0,0) of the block and b at B(0,0);
// ars, aps and bps are gemm's strides and n is the row stride of dst, all
// in elements. It requires k ≥ 1 and nt ≥ 1 and reads no bounds: its
// caller checks every operand's extent first.
//
//go:noescape
func gemm4x8(d, a, b *float64, k, ars, aps, bps, n, nt int)

// gemmTiles computes rows [lo, hi) of dst = A·B with gemm4x8 and reports
// true, or computes nothing and reports false when there is no AVX2 or
// the block is smaller than one 4×8 tile (or k is 0). A ragged last row
// block or column tile is computed as the whole tile that ends at the
// block's edge: it overlaps its neighbour and rewrites the overlap with
// the same bits, since every element's sum is fixed by k alone. The
// overlap stays inside [lo, hi), so concurrent callers on disjoint row
// ranges never write each other's rows.
func gemmTiles(dst, a, b []float64, lo, hi, k, n, ars, aps, bps int) bool {
	if !useAVX2 || k == 0 || n < 8 || hi-lo < 4 {
		return false
	}
	// The assembly reads and writes without bounds checks, so index the
	// highest element of each operand it touches once, here: a too-short
	// slice panics before any out-of-bounds access.
	_ = dst[(hi-1)*n+n-1]
	_ = a[(hi-1)*ars+(k-1)*aps]
	_ = b[(k-1)*bps+n-1]
	nt := n / 8
	for i := lo; i < hi; i += 4 {
		r := min(i, hi-4)
		gemm4x8(&dst[r*n], &a[r*ars], &b[0], k, ars, aps, bps, n, nt)
		if n%8 != 0 {
			gemm4x8(&dst[r*n+n-8], &a[r*ars], &b[n-8], k, ars, aps, bps, n, 1)
		}
	}
	return true
}
