// Package comm implements the collective-communication algorithms the
// paper's systems rely on, with real data movement over in-memory rank
// buffers — the NCCL substitute of this reproduction.
//
// Implemented algorithms:
//
//   - Ring AllReduce, AllGather and ReduceScatter (NCCL's defaults), used
//     by Gradient-AllReduce, ESP-AllGather and ESP-ReduceScatter;
//   - Direct (flat) AlltoAll, the NCCL algorithm DeepSpeed-MoE issues;
//   - 1DH AlltoAll (Hetu): intra-node gather → leader exchange → scatter;
//   - 2DH AlltoAll (Tutel / DeepSpeed): intra-node regrouping phase
//     followed by an inter-node exchange between same-local-index GPUs.
//
// Every variant is tested to produce byte-identical results; they differ
// only in *how* data moves, which the Stats accounting captures (message
// counts and inter- vs intra-node volume). The scheduler's cost models in
// internal/topology are calibrated against exactly these step structures.
//
// The algorithms are free functions over every rank's buffer. Plan
// builders call them through a Comm (handle.go), which scopes a
// collective to a rank subset and runs a fault-injection Guard first.
package comm

import (
	"fmt"
)

// Stats records the traffic an algorithm generated, used to compare
// algorithms and to sanity-check the cost models.
type Stats struct {
	IntraMessages int     // messages between GPUs of one node
	InterMessages int     // messages crossing nodes
	IntraVolume   float64 // elements moved intra-node
	InterVolume   float64 // elements moved inter-node
}

// Merge accumulates another run's traffic into s (chunked collectives sum
// their per-chunk stats this way).
func (s *Stats) Merge(o Stats) {
	s.IntraMessages += o.IntraMessages
	s.InterMessages += o.InterMessages
	s.IntraVolume += o.IntraVolume
	s.InterVolume += o.InterVolume
}

func (s *Stats) add(sameNode bool, n int) {
	if sameNode {
		s.IntraMessages++
		s.IntraVolume += float64(n)
	} else {
		s.InterMessages++
		s.InterVolume += float64(n)
	}
}

// world is a helper binding rank buffers to a node shape.
type world struct {
	g int // gpus per node; 0 disables node accounting (all inter)
}

func (w world) sameNode(a, b int) bool {
	if w.g <= 0 {
		return false
	}
	return a/w.g == b/w.g
}

// checkUniform validates that every rank buffer has the same length.
func checkUniform(data [][]float64) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("comm: no ranks")
	}
	n := len(data[0])
	for r, d := range data {
		if len(d) != n {
			return 0, fmt.Errorf("comm: rank %d has %d elements, rank 0 has %d", r, len(d), n)
		}
	}
	return n, nil
}

// RingAllReduce sums the rank buffers elementwise into every rank, using
// the standard 2(p-1)-step ring: a reduce-scatter phase followed by an
// allgather phase, each moving ~n/p per step. Buffers are updated in
// place. gpusPerNode attributes traffic for Stats (pass 0 to count all
// traffic as inter-node). It is the single-chunk case of the restricted
// ring in allreduce.go, so the chunked collectives are byte-identical to
// it by construction.
func RingAllReduce(data [][]float64, gpusPerNode int) (Stats, error) {
	n, err := checkUniform(data)
	if err != nil {
		return Stats{}, err
	}
	return RingAllReduceChunk(data, gpusPerNode, RowRange{Lo: 0, Hi: n})
}

// RingAllGather concatenates every rank's buffer on every rank:
// out[r] = data[0] ‖ data[1] ‖ … ‖ data[p-1], moved in p-1 ring steps.
func RingAllGather(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	w := world{g: gpusPerNode}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		out[r] = make([]float64, n*p)
		copy(out[r][r*n:(r+1)*n], data[r])
	}
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			cp := make([]float64, n)
			copy(cp, out[r][c*n:(c+1)*n])
			staged[r] = cp
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			copy(out[dst][c*n:(c+1)*n], staged[r])
			st.add(w.sameNode(r, dst), n)
		}
	}
	return out, st, nil
}

// RingReduceScatter sums the rank buffers elementwise and leaves segment r
// of the sum on rank r: out[r] = Σ_s data[s][r·n/p : (r+1)·n/p]. The input
// length must be divisible by p.
func RingReduceScatter(data [][]float64, gpusPerNode int) ([][]float64, Stats, error) {
	var st Stats
	n, err := checkUniform(data)
	if err != nil {
		return nil, st, err
	}
	p := len(data)
	if n%p != 0 {
		return nil, st, fmt.Errorf("comm: reduce-scatter length %d not divisible by %d ranks", n, p)
	}
	w := world{g: gpusPerNode}
	seg := n / p
	// Work on copies so the caller's buffers survive.
	work := make([][]float64, p)
	for r := range data {
		work[r] = append([]float64(nil), data[r]...)
	}
	chunk := func(r, c int) []float64 { return work[r][c*seg : (c+1)*seg] }
	for s := 0; s < p-1; s++ {
		staged := make([][]float64, p)
		for r := 0; r < p; r++ {
			c := ((r-s)%p + p) % p
			cp := make([]float64, seg)
			copy(cp, chunk(r, c))
			staged[r] = cp
		}
		for r := 0; r < p; r++ {
			dst := (r + 1) % p
			c := ((r-s)%p + p) % p
			dchunk := chunk(dst, c)
			for i, v := range staged[r] {
				dchunk[i] += v
			}
			st.add(w.sameNode(r, dst), seg)
		}
	}
	out := make([][]float64, p)
	for r := 0; r < p; r++ {
		// After p-1 steps rank r holds the reduced chunk (r+1) mod p; the
		// conventional output is segment r, so shift.
		c := (r + 1) % p
		res := make([]float64, seg)
		copy(res, chunk(r, c))
		out[c] = res
	}
	return out, st, nil
}
