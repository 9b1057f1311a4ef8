package comm

import "fmt"

// This file is the communicator handle the plan builders call collectives
// through. One Comm value says which ranks a collective spans and which
// fault-injection hook guards it, so every combination of "group-scoped"
// and "guarded" is a field setting rather than a copied entry point.
//
// Members scopes a collective to an arbitrary subset of the global ranks —
// the communication substrate of the hybrid EP×ESP strategy (§4's
// generalized MoE layer), where dispatch AlltoAll runs *between*
// expert-sharding groups while AllGather/ReduceScatter run *within* each
// group. Buffers are always passed as the full per-global-rank slices; a
// scoped call touches only the members' entries and is byte-identical to
// running the collective on just those ranks (the sub-slices alias the
// caller's buffers, so nothing is copied to restrict the scope). Member k
// plays rank k of a len(Members)-rank collective, and Stats locality is
// evaluated on those group-local indices against GPN — callers model the
// subset's node shape, exactly as the free functions model the global one.

// Guard is a fault-injection hook a Comm runs immediately before its
// collective moves the first byte. A non-nil error aborts the call with
// every buffer untouched, so a transient guard failure may be retried
// bit-safely. A nil Guard is always allowed and checks nothing.
type Guard func() error

// Comm is a guarded communicator over a set of ranks. Every method first
// runs Guard (nil passes), then scopes the buffers to Members, then runs
// the free collective of the same name with GPN GPUs per node.
type Comm struct {
	// Members lists the distinct global ranks the collective spans, in
	// group order. nil means every rank of the buffers passed — the
	// monolithic collective.
	Members []int
	// GPN is the GPUs-per-node the traffic Stats are classified against.
	GPN int
	// Guard runs before any byte moves; nil checks nothing.
	Guard Guard
}

// check runs the guard.
func (c Comm) check() error {
	if c.Guard == nil {
		return nil
	}
	return c.Guard()
}

// scope selects the members' buffers; Members == nil keeps them all.
func (c Comm) scope(all [][]float64) ([][]float64, error) {
	if c.Members == nil {
		return all, nil
	}
	return groupSlices(all, c.Members)
}

// enter runs the guard, then scopes a source/destination buffer pair.
func (c Comm) enter(data, out [][]float64) ([][]float64, [][]float64, error) {
	if err := c.check(); err != nil {
		return nil, nil, err
	}
	sub, err := c.scope(data)
	if err != nil {
		return nil, nil, err
	}
	subOut, err := c.scope(out)
	if err != nil {
		return nil, nil, err
	}
	return sub, subOut, nil
}

// AlltoAllRows runs AlltoAllRows among the members: data[Members[k]] /
// out[Members[k]] carry per-destination blocks keyed by group position.
// Byte-identical to the monolithic AlltoAllRows on the members' buffers
// under any grouping and any tiling of the row range.
func (c Comm) AlltoAllRows(algo A2AAlgo, data, out [][]float64, dims BlockDims, rr RowRange) (Stats, error) {
	data, out, err := c.enter(data, out)
	if err != nil {
		return Stats{}, err
	}
	return AlltoAllRows(algo, data, out, c.GPN, dims, rr)
}

// AllGatherRows runs AllGatherRows among the members: out[Members[k]]
// holds len(Members) stacked blocks, source Members[s]'s block at offset
// s·dims.Elems().
func (c Comm) AllGatherRows(data, out [][]float64, dims BlockDims, rr RowRange) (Stats, error) {
	data, out, err := c.enter(data, out)
	if err != nil {
		return Stats{}, err
	}
	return AllGatherRows(data, out, c.GPN, dims, rr)
}

// ReduceScatterRows runs ReduceScatterRows among the members:
// data[Members[k]] carries len(Members) partial segments and
// out[Members[k]] receives rows rr of the elementwise-summed segment k.
func (c Comm) ReduceScatterRows(data, out [][]float64, dims BlockDims, rr RowRange) (Stats, error) {
	data, out, err := c.enter(data, out)
	if err != nil {
		return Stats{}, err
	}
	return ReduceScatterRows(data, out, c.GPN, dims, rr)
}

// AllGatherInto runs RingAllGatherInto among the members:
// out[Members[k]] (len(Members)·n elements) receives the members'
// concatenated blocks in group order. The guard runs before any out
// buffer is written, so a guard failure leaves staging untouched.
func (c Comm) AllGatherInto(out, data [][]float64) (Stats, error) {
	data, out, err := c.enter(data, out)
	if err != nil {
		return Stats{}, err
	}
	return RingAllGatherInto(out, data, c.GPN)
}

// Broadcast copies member root's buffer (root is a group position) into
// every member's buffer along the ring. The guard runs before the first
// ring copy, so a guard failure leaves every buffer untouched and the
// broadcast may be retried bit-safely — the contract the recovery path's
// weight re-placement relies on.
func (c Comm) Broadcast(data [][]float64, root int) (Stats, error) {
	if err := c.check(); err != nil {
		return Stats{}, err
	}
	data, err := c.scope(data)
	if err != nil {
		return Stats{}, err
	}
	return Broadcast(data, root, c.GPN)
}

// checkGroup validates a rank subset against the buffer count n: at least
// one member, every id in [0, n), no duplicates.
func checkGroup(group []int, n int) error {
	if len(group) == 0 {
		return fmt.Errorf("comm: empty rank group")
	}
	seen := make(map[int]bool, len(group))
	for _, r := range group {
		if r < 0 || r >= n {
			return fmt.Errorf("comm: group rank %d outside [0, %d)", r, n)
		}
		if seen[r] {
			return fmt.Errorf("comm: duplicate rank %d in group", r)
		}
		seen[r] = true
	}
	return nil
}

// groupSlices selects the members' buffers. The sub-slices alias the
// caller's data, so collective writes land in the global buffers.
func groupSlices(all [][]float64, group []int) ([][]float64, error) {
	if err := checkGroup(group, len(all)); err != nil {
		return nil, err
	}
	sub := make([][]float64, len(group))
	for k, r := range group {
		sub[k] = all[r]
	}
	return sub, nil
}
