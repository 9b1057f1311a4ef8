//go:build !amd64

package tensor

// gemmTiles has no SIMD tile off amd64: it computes nothing and leaves
// the block to the reference kernel.
func gemmTiles(dst, a, b []float64, lo, hi, k, n, ars, aps, bps int) bool { return false }
