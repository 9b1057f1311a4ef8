package tensor

// matmulParallelThreshold is the FLOP count above which the GEMM kernels
// shard rows across the shared worker pool (pool.go). Below it, scheduling
// costs more than it saves.
const matmulParallelThreshold = 1 << 18

// MatMul returns a @ b for 2-D tensors with shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(mmShape(a, b, "MatMul"), b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b, overwriting dst, which must be (m,n).
// With a pooled dst (GetUninit) this is the allocation-free GEMM the hot
// path uses. Rows shard over the default pool; see Pool.MatMulInto for the
// scoped variant.
func MatMulInto(dst, a, b *Tensor) { defaultPool.MatMulInto(dst, a, b) }

// MatMulInto computes dst = a @ b with the row sharding bound to p's
// worker budget instead of the default pool — the GEMM entry point for
// code running on a scoped compute stream. A nil receiver uses the default
// pool. Results are bit-identical at any width.
func (p *Pool) MatMulInto(dst, a, b *Tensor) {
	m := mmShape(a, b, "MatMulInto")
	n := b.shape[1]
	checkDst(dst, m, n, "MatMulInto")
	k := a.shape[1]
	p.self().gemmRows(dst.data, a.data, b.data, m, k, n, k, 1)
}

// mmShape validates a 2-D pair with matching inner dimension and returns m.
func mmShape(a, b *Tensor, op string) int {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: " + op + " requires 2-D tensors")
	}
	if a.shape[1] != b.shape[0] {
		panic("tensor: " + op + " inner dimension mismatch")
	}
	return a.shape[0]
}

func checkDst(dst *Tensor, m, n int, op string) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: " + op + " destination shape mismatch")
	}
}

// gemmRows computes dst = A·B for an (m, k) A in gemm's strided form
// (ars, aps) and a dense (k, n) B, sharding blocks of four rows over the
// pool. gemm's summation order does not depend on the row cut, so the
// result is identical at any parallel width.
func (p *Pool) gemmRows(dst, a, b []float64, m, k, n, ars, aps int) {
	// The serial checks precede the closure so the single-threaded path
	// stays allocation-free.
	if m*k*n < matmulParallelThreshold || m <= 4*serialCutoff || p.Workers() == 1 {
		gemm(dst, a, b, 0, m, k, n, ars, aps, n)
		return
	}
	p.ParallelRange((m+3)/4, func(lo, hi int) {
		gemm(dst, a, b, 4*lo, min(4*hi, m), k, n, ars, aps, n)
	})
}

// MatMulT1 returns aᵀ @ b where a is (k,m) and b is (k,n); the result is
// (m,n). This is the shape needed for weight gradients (xᵀ @ dy) without
// materializing the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1 requires 2-D tensors")
	}
	out := New(a.shape[1], b.shape[1])
	MatMulT1Into(out, a, b)
	return out
}

// MatMulT1Into computes dst = aᵀ @ b, overwriting dst, which must be (m,n)
// for a (k,m) and b (k,n). Rows shard over the default pool; see
// Pool.MatMulT1Into for the scoped variant.
func MatMulT1Into(dst, a, b *Tensor) { defaultPool.MatMulT1Into(dst, a, b) }

// MatMulT1Into computes dst = aᵀ @ b with the row sharding bound to p's
// worker budget (nil = default pool). The kernel reads aᵀ in place: row i
// of dst walks column i of a.
func (p *Pool) MatMulT1Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT1Into requires 2-D tensors")
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMulT1Into inner dimension mismatch")
	}
	checkDst(dst, m, n, "MatMulT1Into")
	p.self().gemmRows(dst.data, a.data, b.data, m, k, n, 1, m)
}

// MatMulT2 returns a @ bᵀ where a is (m,k) and b is (n,k); the result is
// (m,n). This is the shape needed for input gradients (dy @ Wᵀ) without
// materializing the transpose.
func MatMulT2(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2 requires 2-D tensors")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulT2Into(out, a, b)
	return out
}

// MatMulT2Into computes dst = a @ bᵀ, overwriting dst, which must be (m,n)
// for a (m,k) and b (n,k). Rows shard over the default pool; see
// Pool.MatMulT2Into for the scoped variant.
func MatMulT2Into(dst, a, b *Tensor) { defaultPool.MatMulT2Into(dst, a, b) }

// MatMulT2Into computes dst = a @ bᵀ with the row sharding bound to p's
// worker budget (nil = default pool). b is first transposed into a pooled
// (k,n) buffer — O(nk) copying against O(mnk) arithmetic — so the product
// runs the same kernel, in the same order, as MatMulInto.
func (p *Pool) MatMulT2Into(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT2Into requires 2-D tensors")
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic("tensor: MatMulT2Into inner dimension mismatch")
	}
	checkDst(dst, m, n, "MatMulT2Into")
	bt := GetUninit(k, n)
	transpose(bt.data, b.data, n, k)
	p.self().gemmRows(dst.data, a.data, bt.data, m, k, n, k, 1)
	Put(bt)
}

// transpose writes the (cols,rows) transpose of the row-major (rows,cols)
// src into dst, in square blocks so that both sides' cache lines are
// reused while they are resident.
func transpose(dst, src []float64, rows, cols int) {
	const blk = 16
	for i0 := 0; i0 < rows; i0 += blk {
		i1 := min(i0+blk, rows)
		for j0 := 0; j0 < cols; j0 += blk {
			j1 := min(j0+blk, cols)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					dst[j*rows+i] = src[i*cols+j]
				}
			}
		}
	}
}

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a 2-D tensor")
	}
	out := New(a.shape[1], a.shape[0])
	transpose(out.data, a.data, a.shape[0], a.shape[1])
	return out
}

// BatchedMatMul multiplies two 3-D tensors batch-wise: (b,m,k)@(b,k,n) →
// (b,m,n). Batches shard over the shared worker pool when the total work
// clears the parallel threshold; small batched products run sequentially
// instead of paying one goroutine per batch.
func BatchedMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic("tensor: BatchedMatMul requires 3-D tensors")
	}
	bs, m, k := a.shape[0], a.shape[1], a.shape[2]
	bs2, k2, n := b.shape[0], b.shape[1], b.shape[2]
	if bs != bs2 || k != k2 {
		panic("tensor: BatchedMatMul shape mismatch")
	}
	out := New(bs, m, n)
	if bs*m*k*n < matmulParallelThreshold || Workers() == 1 {
		for i := 0; i < bs; i++ {
			gemm(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n, k, 1, n)
		}
		return out
	}
	if bs <= serialCutoff {
		// Too few batches to fan out over; recover the parallelism inside
		// each product instead (row sharding), which the per-batch leaf
		// kernel above deliberately skips.
		for i := 0; i < bs; i++ {
			defaultPool.gemmRows(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], m, k, n, k, 1)
		}
		return out
	}
	ParallelFor(bs, func(i int) {
		gemm(out.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data[i*k*n:(i+1)*k*n], 0, m, k, n, k, 1, n)
	})
	return out
}
