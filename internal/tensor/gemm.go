package tensor

// gemm computes rows [lo, hi) of dst = A·B for an A with k columns and a
// (k, n) B, writing the dense row-major (·, n) dst. The operands are
// strided so that one kernel serves every layout: A(i,p) is a[i*ars+p*aps]
// and B(p,j) is b[p*bps+j]. All strides are non-negative.
//
// Every element is one sequential sum over p from 0 that starts at +0 and
// rounds each product before adding it (s += float64(a*b)); the explicit
// conversion forbids the compiler from fusing the pair into an FMA. The
// order therefore depends on k alone — not on m, n, the row cut, a column
// window or the caller's parallel width — which is what makes the MatMul
// entry points bit-identical to each other and to any sharding of them.
//
// Where the CPU supports it, gemmTiles computes the block with SIMD tiles
// in exactly this order; otherwise, and for blocks too small for a tile,
// gemmGo, the reference, computes it.
func gemm(dst, a, b []float64, lo, hi, k, n, ars, aps, bps int) {
	if !gemmTiles(dst, a, b, lo, hi, k, n, ars, aps, bps) {
		gemmGo(dst, a, b, lo, hi, k, n, ars, aps, bps)
	}
}

// gemmGo is the pure-Go reference kernel: gemm without the SIMD tiles.
// It accumulates in dst itself and streams four rows of B per pass, adding
// their four products to each element one after another, so every access
// is unit-stride and dst is loaded and stored once per four p. A float64
// store is exact, so the memory round trip does not change the sum.
func gemmGo(dst, a, b []float64, lo, hi, k, n, ars, aps, bps int) {
	for i := lo; i < hi; i++ {
		di := dst[i*n : (i+1)*n : (i+1)*n]
		clear(di)
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[i*ars+p*aps], a[i*ars+(p+1)*aps], a[i*ars+(p+2)*aps], a[i*ars+(p+3)*aps]
			o := p * bps
			b0 := b[o : o+n : o+n]
			b1 := b[o+bps : o+bps+n : o+bps+n]
			b2 := b[o+2*bps : o+2*bps+n : o+2*bps+n]
			b3 := b[o+3*bps : o+3*bps+n : o+3*bps+n]
			for j := range di {
				s := di[j]
				s += float64(a0 * b0[j])
				s += float64(a1 * b1[j])
				s += float64(a2 * b2[j])
				s += float64(a3 * b3[j])
				di[j] = s
			}
		}
		for ; p < k; p++ {
			av := a[i*ars+p*aps]
			o := p * bps
			bp := b[o : o+n : o+n]
			for j := range di {
				di[j] += float64(av * bp[j])
			}
		}
	}
}
