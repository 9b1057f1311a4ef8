package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// hybridStrategy is the §4 generalized MoE layer: the R ranks split into
// nG = R/g expert-parallel groups of g expert-sharding members. Group G
// owns the contiguous expert range [G·Egg, (G+1)·Egg), Egg = g·E/R, and
// its g members shard every group expert's compute. Per chunk c the plan
// is
//
//	D       dispatch AlltoAll between groups: lane m (member m of every
//	        group, global ranks {p·g+m}) runs an nG-participant AlltoAll
//	        on the shared inter stream, moving each rank's slot rows to
//	        the group owning their experts;
//	AG(x)   gather the g members' arrivals inside each group, on that
//	        group's own intra collective stream;
//	H       stage-1 GEMMs over every arrived row range, sharded over
//	        hidden COLUMNS g ways (ShardedExpert);
//	AG(h)   gather the hidden column shards to full width in-group;
//	O       stage-2 GEMMs, sharded over each member's own arrival ROWS;
//	RS(y)   in-group ReduceScatter of the row-disjoint partial outputs
//	        (one non-zero contributor per element, so the ring is exact);
//	C       combine AlltoAll between groups, back on the inter stream.
//
// The backward pass is the adjoint chain: combine-gradient lanes, AG(dy),
// B1 (column-sharded), AG(hidden grads), B2 (row-sharded), RS(dx),
// dispatch-gradient lanes.
//
// StrategyESP is the one-group case (g = R, GroupSize ignored): every
// rank shards every expert, the lane hops are the identity and are not
// emitted, the in-group row exchange packs straight from the scattered
// buffer and lands straight into the combined one, and the single
// group's collectives run on the shared intra stream with no member
// list. The inter stream then carries no layer collective at all, so §5
// AllReduce slices overlap the intra-stream AG/RS chain freely — the
// measured counterpart of the paper's inter/intra-node co-scheduling.
// Hybrid at GroupSize 1 (pure EP) delegates to the EP builder, which
// also serves whole-block experts.
//
// Bit-identity leans on one invariant: a member lands every dispatched
// row at its canonical offset (p·g+m)·spad+t inside the group's
// (Egg, tpad, M) buffers, so the assembled blocks are ordered exactly as
// the sequential layer's. The stage GEMMs then shard complete dot
// products (columns forward, rows backward), and each expert's
// full-block weight-gradient reduction runs once on its owner rank
// j = e·R/E (the RankGrads mapping; owner j is member j mod g of group
// j div g) from fully assembled buffers.
type hybridStrategy struct {
	name    Strategy        // StrategyHybrid, or StrategyESP (one group)
	g, nG   int             // group size, group count
	eg, egg int             // experts per rank, experts per group
	inner   *epStrategy     // the GroupSize-1 delegate, else nil
	experts []ShardedExpert // the layer's experts under the sharded contract
	groups  [][]int         // groups[G]: contiguous member ranks of group G
	lanes   [][]int         // lanes[m]: member m of every group, stride g
}

// hybridCache is the forward state Backward consumes.
type hybridCache struct {
	xFull   []*tensor.Tensor   // per rank (Egg, tpad, M) assembled group inputs
	outFull []*tensor.Tensor   // per rank (Egg, tpad, M) row-shard outputs
	hf      [][]*tensor.Tensor // [rank][group-local expert] exchange buffers
	scs     [][]ShardedCache   // [rank][group-local expert]; nil once released
}

// Name implements ParallelStrategy. Hybrid at GroupSize 1 still reports
// the hybrid name: the EP delegate is a plan-construction detail.
func (s *hybridStrategy) Name() Strategy { return s.name }

// Chunked implements ParallelStrategy.
func (s *hybridStrategy) Chunked() bool {
	if s.inner != nil {
		return s.inner.Chunked()
	}
	return true
}

// Validate implements ParallelStrategy: GroupSize must be a divisor of
// the rank count inside [1, R], and every expert must implement
// ShardedExpert — at every group size, so a layer that validates at one
// g validates at all of them (the Algorithm-1 grid sweeps g freely).
func (s *hybridStrategy) Validate(l *MOELayer, cfg WorldConfig) error {
	r, g := cfg.Ranks, cfg.GroupSize
	if s.name == StrategyESP {
		g = r
	}
	if g < 1 || g > r {
		return fmt.Errorf("moe: strategy %q needs GroupSize in [1, %d] (the rank count), got GroupSize=%d",
			s.name, r, g)
	}
	if r%g != 0 {
		return fmt.Errorf("moe: strategy %q needs GroupSize dividing the rank count, got %d ranks over GroupSize=%d",
			s.name, r, g)
	}
	s.experts = make([]ShardedExpert, len(l.cfg.Experts))
	for e, ex := range l.cfg.Experts {
		se, ok := ex.(ShardedExpert)
		if !ok {
			return fmt.Errorf("moe: strategy %q requires sharded expert compute, but expert %d (%T) does not implement ShardedExpert; whole-block experts run under strategy %q",
				s.name, e, ex, StrategyEP)
		}
		s.experts[e] = se
	}
	s.g, s.nG = g, r/g
	s.eg = len(l.cfg.Experts) / r
	s.egg = s.eg * g
	s.groups = make([][]int, s.nG)
	for gi := range s.groups {
		s.groups[gi] = make([]int, g)
		for m := 0; m < g; m++ {
			s.groups[gi][m] = gi*g + m
		}
	}
	s.lanes = make([][]int, g)
	for m := range s.lanes {
		s.lanes[m] = make([]int, s.nG)
		for p := 0; p < s.nG; p++ {
			s.lanes[m][p] = p*g + m
		}
	}
	if g == 1 && s.name == StrategyHybrid {
		s.inner = &epStrategy{}
		return s.inner.Validate(l, cfg)
	}
	return nil
}

// PlanCheck implements ParallelStrategy.
func (s *hybridStrategy) PlanCheck(plan *DispatchPlan) error {
	if plan.IsDense() {
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to shard); dense plans run under strategy %q",
			s.name, StrategyDenseSlots)
	}
	return nil
}

// groupCollStream is group G's intra collective stream: each group runs
// its AllGather/ReduceScatter chain on its own stream, so the nG chains
// genuinely co-execute (and all of them overlap the shared inter stream).
func groupCollStream(g int) string { return fmt.Sprintf("intra:g%d", g) }

// groupGpn models one contiguous member group's node shape for Stats and
// the ring groupings: consecutive global ranks, so a group either fits
// inside one node or spans whole nodes; anything irregular degrades to
// all-inter attribution.
func (s *hybridStrategy) groupGpn(w *World) int {
	gpn := w.cfg.GPUsPerNode
	if gpn >= s.g {
		return s.g
	}
	if s.g%gpn == 0 {
		return gpn
	}
	return 1
}

// laneGpn models one dispatch lane's node shape: lane members sit g apart,
// so consecutive lane members share a node only when each node holds whole
// groups (g divides GPUsPerNode); otherwise every lane hop is inter-node.
func (s *hybridStrategy) laneGpn(w *World) int {
	gpn := w.cfg.GPUsPerNode
	if gpn%s.g == 0 {
		if ln := gpn / s.g; ln >= 1 && s.nG%ln == 0 {
			return ln
		}
	}
	return 1
}

// groupEst is a structural duration estimate (MMACs) of group G's expert
// range over rows, the group analog of World.expertEst.
func (s *hybridStrategy) groupEst(gi, rows int) float64 {
	macs := 0.0
	for _, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		macs += ex.FwdMACs(rows)
	}
	return macs / 1e6
}

// groupComm returns group gi's collective stream and a communicator for
// the next collective on it. The one group of the ESP case spans every
// rank (no member list) on the shared intra stream, which also keys its
// fault guards.
func (s *hybridStrategy) groupComm(w *World, gi int, kind string) (string, comm.Comm) {
	if s.nG == 1 {
		return collStream, w.collComm(collStream, kind, nil, w.cfg.GPUsPerNode)
	}
	st := groupCollStream(gi)
	return st, w.collComm(st, kind, s.groups[gi], s.groupGpn(w))
}

// laneA2A wraps one chunk's dispatch (or combine) step: the g per-lane
// AlltoAll collectives issued back to back on the shared inter stream. One
// guard covers the whole step and runs before any lane moves a byte, so a
// transient guard failure retries bit-safely.
func (s *hybridStrategy) laneA2A(w *World, send, recv [][]float64, dims comm.BlockDims, rr comm.RowRange) func() error {
	guarded := w.collComm("inter", KindA2A, nil, s.laneGpn(w))
	return func() error {
		// One guard invocation per attempt: lane 0 carries it, the
		// remaining lanes of the same step run unguarded behind it.
		c := guarded
		for _, lane := range s.lanes {
			c.Members = lane
			st, err := c.AlltoAllRows(w.cfg.Algo, send, recv, dims, rr)
			if err != nil {
				return err
			}
			c.Guard = nil
			w.addStats(st)
		}
		return nil
	}
}

// xferMember copies chunk rows between member (G, m)'s (Egg, tpad, M)
// group buffer and its lane wire, whose per-peer blocks are keyed by peer
// group: block p holds global rank (p·g+m)'s slot rows, landed at their
// canonical offsets (p·g+m)·spad+t — the row-order invariant the
// weight-gradient reductions rely on. Peer groups shard over pool.
func (s *hybridStrategy) xferMember(pool *tensor.Pool, wire, block []float64, m, mdim, spad, tpad int, rr comm.RowRange, toWire bool) {
	g, egg := s.g, s.egg
	blk := spad * egg * mdim
	pool.ParallelFor(s.nG, func(p int) {
		wb := wire[p*blk : (p+1)*blk]
		base := (p*g + m) * spad
		for el := 0; el < egg; el++ {
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := wireOff(t, el, 0, egg, mdim)
				boff := (el*tpad + base + t) * mdim
				if toWire {
					copy(wb[woff:woff+mdim], block[boff:boff+mdim])
				} else {
					copy(block[boff:boff+mdim], wb[woff:woff+mdim])
				}
			}
		}
	})
}

// xferRows copies chunk rows between a member's (Egg, tpad, M) group
// buffer and the slot-major group wire the in-group AllGather and
// ReduceScatter tile: wire row t stacks every (expert, peer-group) pair of
// member m's strided slot rows side by side, width E·M, so the group
// collectives chunk by slot row. With one group the buffer is the
// (E, tpad, M) scattered or combined buffer itself and wire row t holds
// every expert's row m·spad+t. Experts shard over pool.
func (s *hybridStrategy) xferRows(pool *tensor.Pool, wire, block []float64, m, mdim, spad, tpad int, rr comm.RowRange, toWire bool) {
	g, nG, egg := s.g, s.nG, s.egg
	width := egg * nG // == E
	pool.ParallelFor(egg, func(el int) {
		for p := 0; p < nG; p++ {
			base := (p*g + m) * spad
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := (t*width + el*nG + p) * mdim
				boff := (el*tpad + base + t) * mdim
				if toWire {
					copy(wire[woff:woff+mdim], block[boff:boff+mdim])
				} else {
					copy(block[boff:boff+mdim], wire[woff:woff+mdim])
				}
			}
		}
	})
}

// hybridPass is one plan under construction: the world, the plan, the
// pass's cache, the padded slot geometry every task shares, and the
// pass's wire buffers — the outbound and return lane pairs (nil with one
// group, which has no lane hops) and the in-group AllGather and
// ReduceScatter pairs.
type hybridPass struct {
	*hybridStrategy
	w                            *World
	p                            *runtime.Plan
	cache                        *WorldCache
	mdim, spad, tpad             int
	send, recv, back, backRecv   [][]float64
	agData, agOut, rsData, rsOut [][]float64
}

func (s *hybridStrategy) pass(w *World, p *runtime.Plan, cache *WorldCache) *hybridPass {
	h := &hybridPass{hybridStrategy: s, w: w, p: p, cache: cache, mdim: w.layer.cfg.M, spad: cache.spad, tpad: cache.tpad}
	r, g := s.nG*s.g, s.g
	if s.nG > 1 {
		n := s.nG * h.spad * s.egg * h.mdim
		h.send, h.recv, h.back, h.backRecv = wireBuffers(r, n), wireBuffers(r, n), wireBuffers(r, n), wireBuffers(r, n)
	}
	blk := h.rowElems(h.spad)
	h.agData, h.agOut = wireBuffers(r, blk), wireBuffers(r, g*blk)
	h.rsData, h.rsOut = wireBuffers(r, g*blk), wireBuffers(r, blk)
	return h
}

// rowElems is the element count of rows slot rows across every expert.
func (h *hybridPass) rowElems(rows int) int { return len(h.experts) * rows * h.mdim }

// laneEst is the estimate of one chunk's lane AlltoAll step.
func (h *hybridPass) laneEst(rr comm.RowRange) float64 {
	r := h.nG * h.g
	return estElems(r * r * h.eg * rr.Len() * h.mdim)
}

// laneDims is the per-peer block geometry of the lane wires.
func (h *hybridPass) laneDims() comm.BlockDims {
	return comm.BlockDims{Rows: h.spad, Width: h.egg * h.mdim}
}

// packRows adds rank j's pack of its canonical chunk rows from block into
// the slot-major wire.
func (h *hybridPass) packRows(label string, j int, wire, block []float64, rr comm.RowRange, deps ...int) int {
	return h.p.Add(label, KindPack, intraStream(j), estElems(h.rowElems(rr.Len())), func() error {
		h.xferRows(h.w.stagingPool(), wire, block, j%h.g, h.mdim, h.spad, h.tpad, rr, true)
		return nil
	}, deps...)
}

// unpackRows adds rank j's scatter of every group member's gathered chunk
// rows into block. With more than one group the member's own rows
// already live in block (its lane landed them) and are skipped.
func (h *hybridPass) unpackRows(label string, j int, block []float64, rr comm.RowRange, ag int) int {
	g, m := h.g, j%h.g
	blk := h.rowElems(h.spad)
	return h.p.Add(label, KindPack, intraStream(j), estElems(g*h.rowElems(rr.Len())), func() error {
		for src := 0; src < g; src++ {
			if src == m && h.nG > 1 {
				continue
			}
			h.xferRows(h.w.stagingPool(), h.agOut[j][src*blk:(src+1)*blk], block, src, h.mdim, h.spad, h.tpad, rr, false)
		}
		return nil
	}, ag)
}

// rowsColl adds group gi's in-group AllGather or ReduceScatter of chunk
// rows over the slot-major wires, gated on the members' tasks in ids.
func (h *hybridPass) rowsColl(label string, gi int, kind string, data, out [][]float64, rr comm.RowRange, ids []int) int {
	g := h.g
	dims := comm.BlockDims{Rows: h.spad, Width: len(h.experts) * h.mdim}
	stream, gc := h.groupComm(h.w, gi, kind)
	return h.p.Add(label, kind, stream, estElems((g-1)*g*h.rowElems(rr.Len())), func() error {
		var st comm.Stats
		var err error
		if kind == KindAG {
			st, err = gc.AllGatherRows(data, out, dims, rr)
		} else {
			st, err = gc.ReduceScatterRows(data, out, dims, rr)
		}
		if err != nil {
			return err
		}
		h.w.addStats(st)
		return nil
	}, ids[gi*g:(gi+1)*g]...)
}

// outbound adds chunk c's first collective out of the token-side buffer
// src (scattered x forward, dy backward): the lane AlltoAll named lane
// behind per-rank packs, or with one group the in-group AllGather packed
// straight from src. Returns the collective's task id.
func (h *hybridPass) outbound(c int, lane string, src []float64, rr comm.RowRange) int {
	packIDs := make([]int, h.nG*h.g)
	for i := range packIDs {
		i := i
		if h.nG == 1 {
			packIDs[i] = h.packRows(fmt.Sprintf("G%d[%d]", c, i), i, h.agData[i], src, rr)
			continue
		}
		packIDs[i] = h.p.Add(fmt.Sprintf("P%d[%d]", c, i), KindPack, intraStream(i),
			estElems(h.rowElems(rr.Len())), func() error {
				xferGlobal(h.w.stagingPool(), h.send[i], src, h.nG, h.egg, h.mdim, h.spad, h.tpad, i, rr, true)
				return nil
			})
	}
	if h.nG == 1 {
		return h.rowsColl(fmt.Sprintf("AG[%d]", c), 0, KindAG, h.agData, h.agOut, rr, packIDs)
	}
	return h.p.Add(fmt.Sprintf("%s[%d]", lane, c), KindA2A, "inter", h.laneEst(rr),
		h.laneA2A(h.w, h.send, h.recv, h.laneDims(), rr), packIDs...)
}

// inbound adds the arrival side of a chunk whose outbound collective is
// task first: each rank lands its lane arrivals at canonical offsets in
// bufs[j] and shares them in-group (with one group it only unpacks the
// gathered rows), then stage(j, dep) appends rank j's first compute task
// behind them. Returns the stage task ids.
func (h *hybridPass) inbound(label string, first int, bufs []*tensor.Tensor, rr comm.RowRange, stage func(j, dep int) int) []int {
	ids := make([]int, len(bufs))
	if h.nG == 1 {
		for j := range ids {
			ids[j] = stage(j, h.unpackRows(fmt.Sprintf("U%s[%d]", label, j), j, bufs[j].Data(), rr, first))
		}
		return ids
	}
	for j := range ids {
		j := j
		ids[j] = h.p.Add(fmt.Sprintf("U%s[%d]", label, j), KindPack, intraStream(j),
			estElems(h.rowElems(rr.Len())), func() error {
				h.xferMember(h.w.stagingPool(), h.recv[j], bufs[j].Data(), j%h.g, h.mdim, h.spad, h.tpad, rr, false)
				return nil
			}, first)
	}
	for j := range ids {
		ids[j] = h.packRows(fmt.Sprintf("G%s[%d]", label, j), j, h.agData[j], bufs[j].Data(), rr, ids[j])
	}
	unpackIDs := make([]int, len(bufs))
	for gi, members := range h.groups {
		ag := h.rowsColl(fmt.Sprintf("AG%s[g%d]", label, gi), gi, KindAG, h.agData, h.agOut, rr, ids)
		for _, j := range members {
			unpackIDs[j] = h.unpackRows(fmt.Sprintf("U%s[%d]", label, j), j, bufs[j].Data(), rr, ag)
		}
	}
	for j, u := range unpackIDs {
		ids[j] = stage(j, u)
	}
	return ids
}

// toTokens adds chunk c's return path: rank j's row-sharded stage(j, dep)
// behind deps[j], the in-group ReduceScatter of the row-disjoint bufs
// (each member packs only its own segment, so every summed element has
// exactly one non-zero contributor and the ring is exact), and the lane
// AlltoAll named lane back to the token side, landing every rank's rows
// in dst. With one group each rank packs right behind its stage and the
// ReduceScatter lands straight in dst. emit, when non-nil, runs right
// after the chunk's last outbound collective. Returns the stage task ids.
func (h *hybridPass) toTokens(c int, label, lane string, stage func(j, dep int) int, deps []int, bufs []*tensor.Tensor, dst *tensor.Tensor, rr comm.RowRange, emit func()) []int {
	r := len(bufs)
	blk := h.rowElems(h.spad)
	stageIDs := make([]int, r)
	packIDs := make([]int, r)
	pack := func(j int) {
		m := j % h.g
		packIDs[j] = h.packRows(fmt.Sprintf("P%s[%d]", label, j), j, h.rsData[j][m*blk:(m+1)*blk], bufs[j].Data(), rr, stageIDs[j])
	}
	for j := range stageIDs {
		stageIDs[j] = stage(j, deps[j])
		if h.nG == 1 {
			pack(j)
		}
	}
	landIn := bufs
	if h.nG == 1 {
		landIn = make([]*tensor.Tensor, r)
		for j := range landIn {
			landIn[j] = dst
		}
	} else {
		for j := range packIDs {
			pack(j)
		}
	}
	landIDs := make([]int, r)
	for gi, members := range h.groups {
		rs := h.rowsColl(fmt.Sprintf("RS%s[g%d]", label, gi), gi, KindRS, h.rsData, h.rsOut, rr, packIDs)
		if h.nG == 1 && emit != nil {
			emit()
		}
		for _, j := range members {
			j := j
			landIDs[j] = h.p.Add(fmt.Sprintf("V%s[%d]", label, j), KindPack, intraStream(j),
				estElems(h.rowElems(rr.Len())), func() error {
					h.xferRows(h.w.stagingPool(), h.rsOut[j], landIn[j].Data(), j%h.g, h.mdim, h.spad, h.tpad, rr, false)
					return nil
				}, rs)
		}
	}
	if h.nG == 1 {
		return stageIDs
	}
	for j := range packIDs {
		j := j
		packIDs[j] = h.p.Add(fmt.Sprintf("R%d[%d]", c, j), KindPack, intraStream(j),
			estElems(h.rowElems(rr.Len())), func() error {
				h.xferMember(h.w.stagingPool(), h.back[j], bufs[j].Data(), j%h.g, h.mdim, h.spad, h.tpad, rr, true)
				return nil
			}, landIDs[j])
	}
	a2a := h.p.Add(fmt.Sprintf("%s[%d]", lane, c), KindA2A, "inter", h.laneEst(rr),
		h.laneA2A(h.w, h.back, h.backRecv, h.laneDims(), rr), packIDs...)
	if emit != nil {
		emit()
	}
	for i := 0; i < r; i++ {
		i := i
		h.p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, intraStream(i),
			estElems(h.rowElems(rr.Len())), func() error {
				xferGlobal(h.w.stagingPool(), h.backRecv[i], dst.Data(), h.nG, h.egg, h.mdim, h.spad, h.tpad, i, rr, false)
				return nil
			}, a2a)
	}
	return stageIDs
}

// hiddenBlock is the per-member wire block of one hidden exchange chunk
// for group gi: for every group expert, bands stacked planes of (R·rlen
// rows × ⌈W/g⌉ allotted columns) — all R arrival row ranges, columns
// sharded g ways.
func (s *hybridStrategy) hiddenBlock(gi, rlen int, fwd bool) int {
	rows := s.nG * s.g * rlen
	blk := 0
	for _, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		ccap := (ex.HiddenWidth() + s.g - 1) / s.g
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		blk += bands * rows * ccap
	}
	return blk
}

// xferHidden moves member's hidden-column shards for chunk rows between
// group gi's full-width per-expert buffers bufs and a dense wire block:
// columns shard g ways, rows span all R arrival ranges. toWire packs the
// member's own computed columns, !toWire scatters an arrived member's
// columns into the full-width buffers.
func (s *hybridStrategy) xferHidden(gi int, bufs []*tensor.Tensor, wire []float64, member, spad, tpad int, rr comm.RowRange, fwd, toWire bool) {
	off := 0
	rlen := rr.Len()
	r := s.nG * s.g
	rows := r * rlen
	for le, ex := range s.experts[gi*s.egg : (gi+1)*s.egg] {
		width := ex.HiddenWidth()
		ccap := (width + s.g - 1) / s.g
		bands := ex.FwdBands()
		if !fwd {
			bands = ex.BwdBands()
		}
		cl, ch := colShard(width, member, s.g)
		if ch > cl {
			for b := 0; b < bands; b++ {
				plane := off + b*rows*ccap
				for i := 0; i < r; i++ {
					for t := rr.Lo; t < rr.Hi; t++ {
						woff := plane + (i*rlen+(t-rr.Lo))*ccap
						row := bufs[le].Row(b*tpad + i*spad + t)[cl:ch]
						if toWire {
							copy(wire[woff:woff+ch-cl], row)
						} else {
							copy(row, wire[woff:woff+ch-cl])
						}
					}
				}
			}
		}
		off += bands * rows * ccap
	}
}

// hiddenExchange appends one chunk's in-group hidden AllGather to the
// plan: per-member packs of the member's computed columns (pooled wire
// blocks), one ring AllGather per group, and per-member scatter of every
// member's columns into the full-width buffers. bufs[j] is rank j's
// per-expert buffer list (hf forward, hb backward); deps[j] gates rank j's
// pack. Returns the per-rank unpack task ids. Staging a plan abort
// strands is returned to the pool through the pass cache.
func (h *hybridPass) hiddenExchange(label string, bufs [][]*tensor.Tensor, rr comm.RowRange, fwd bool, deps []int) []int {
	g := h.g
	r := h.nG * g
	sendT := make([]*tensor.Tensor, r)
	send := make([][]float64, r)
	outT := make([]*tensor.Tensor, r)
	outB := make([][]float64, r)
	h.cache.onAbort(func() {
		for j := range sendT {
			tensor.Put(sendT[j])
			tensor.Put(outT[j])
		}
	})
	packIDs := make([]int, r)
	for j := 0; j < r; j++ {
		j := j
		gi, m := j/g, j%g
		blk := h.hiddenBlock(gi, rr.Len(), fwd)
		packIDs[j] = h.p.Add(fmt.Sprintf("P%s[%d]", label, j), KindPack, intraStream(j),
			estElems(blk), func() error {
				t := tensor.GetUninit(blk)
				sendT[j], send[j] = t, t.Data()
				h.xferHidden(gi, bufs[j], send[j], m, h.spad, h.tpad, rr, fwd, true)
				return nil
			}, deps[j])
	}
	unpackIDs := make([]int, r)
	for gi, members := range h.groups {
		gi, members := gi, members
		blk := h.hiddenBlock(gi, rr.Len(), fwd)
		stream, gc := h.groupComm(h.w, gi, KindAG)
		ag := h.p.Add(fmt.Sprintf("AG%s[g%d]", label, gi), KindAG, stream,
			estElems((g-1)*g*blk), func() error {
				for _, mr := range members {
					if outT[mr] != nil {
						tensor.Put(outT[mr]) // a prior attempt's staging, reclaimed before re-Get
					}
					t := tensor.GetUninit(g * blk)
					outT[mr], outB[mr] = t, t.Data()
				}
				st, err := gc.AllGatherInto(outB, send)
				if err != nil {
					return err
				}
				h.w.addStats(st)
				return nil
			}, packIDs[gi*g:(gi+1)*g]...)
		for _, j := range members {
			j := j
			unpackIDs[j] = h.p.Add(fmt.Sprintf("U%s[%d]", label, j), KindPack, intraStream(j),
				estElems(g*blk), func() error {
					for src := 0; src < g; src++ {
						h.xferHidden(gi, bufs[j], outB[j][src*blk:(src+1)*blk], src, h.spad, h.tpad, rr, fwd, false)
					}
					tensor.Put(outT[j])
					tensor.Put(sendT[j])
					outT[j], sendT[j] = nil, nil
					return nil
				}, ag)
		}
	}
	return unpackIDs
}

// BuildForward implements ParallelStrategy.
func (s *hybridStrategy) BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	if s.inner != nil {
		s.inner.BuildForward(w, p, cache, scatPad, combinedPad)
		return
	}
	r, mdim := w.cfg.Ranks, w.layer.cfg.M
	g, nG, egg := s.g, s.nG, s.egg
	spad, tpad := cache.spad, cache.tpad

	hc := &hybridCache{
		xFull:   make([]*tensor.Tensor, r),
		outFull: make([]*tensor.Tensor, r),
		hf:      make([][]*tensor.Tensor, r),
		scs:     make([][]ShardedCache, r),
	}
	cache.sc = hc
	for j := 0; j < r; j++ {
		gi, m := j/g, j%g
		hc.xFull[j] = tensor.New(egg, tpad, mdim)
		hc.outFull[j] = tensor.New(egg, tpad, mdim)
		hc.hf[j] = make([]*tensor.Tensor, egg)
		hc.scs[j] = make([]ShardedCache, egg)
		for le := 0; le < egg; le++ {
			ex := s.experts[gi*egg+le]
			hc.hf[j][le] = tensor.New(ex.FwdBands()*tpad, ex.HiddenWidth())
			cl, ch := colShard(ex.HiddenWidth(), m, g)
			hc.scs[j][le] = ex.BeginSharded(
				expertView(hc.xFull[j], le, tpad, mdim),
				expertView(hc.outFull[j], le, tpad, mdim),
				hc.hf[j][le], cl, ch, w.computePool(j))
		}
	}
	cache.onAbort(func() {
		for j, scs := range hc.scs {
			for le, sc := range scs {
				if sc != nil {
					s.experts[j/g*egg+le].DropSharded(sc)
				}
			}
		}
	})
	h := s.pass(w, p, cache)
	ranges := comm.SplitRows(spad, w.cfg.ChunksFwd)

	// Phase 1 — every chunk's dispatch, issued back to back (the Fig. 3c/d
	// ordering): chunk c+1 is on the wire while chunk c runs its in-group
	// stages.
	first := make([]int, len(ranges))
	for c, rr := range ranges {
		first[c] = h.outbound(c, "D", scatPad.Data(), rr)
	}

	// Phase 2 — per chunk: land and share the arrivals in-group, stage-1
	// GEMMs, hidden exchange, stage-2 GEMMs, and the return to the token
	// side.
	for c, rr := range ranges {
		rr := rr
		rows := r * rr.Len()
		hIDs := h.inbound(fmt.Sprintf("x%d", c), first[c], hc.xFull, rr, func(j, dep int) int {
			gi := j / g
			return p.Add(fmt.Sprintf("H%d[%d]", c, j), KindExpert, computeStream(j),
				s.groupEst(gi, rows)/(2*float64(g)), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						for i := 0; i < r; i++ {
							ex.ForwardHidden(hc.scs[j][le], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, dep)
		})
		unpackH := h.hiddenExchange(fmt.Sprintf("h%d", c), hc.hf, rr, true, hIDs)
		h.toTokens(c, fmt.Sprintf("y%d", c), "C", func(j, dep int) int {
			gi, m := j/g, j%g
			return p.Add(fmt.Sprintf("O%d[%d]", c, j), KindExpert, computeStream(j),
				s.groupEst(gi, nG*rr.Len())/2, func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						for q := 0; q < nG; q++ {
							base := (q*g + m) * spad
							ex.ForwardOut(hc.scs[j][le], base+rr.Lo, base+rr.Hi)
						}
					}
					return nil
				}, dep)
		}, unpackH, hc.outFull, combinedPad, rr, nil)
	}
}

// BuildBackward implements ParallelStrategy.
func (s *hybridStrategy) BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	if s.inner != nil {
		s.inner.BuildBackward(w, p, cache, dpad, dScatteredPad)
		return
	}
	hc := cache.sc.(*hybridCache)
	r, mdim := w.cfg.Ranks, w.layer.cfg.M
	g, nG, egg := s.g, s.nG, s.egg
	spad, tpad := cache.spad, cache.tpad

	dyFull := make([]*tensor.Tensor, r)
	dxFull := make([]*tensor.Tensor, r)
	hb := make([][]*tensor.Tensor, r)
	for j := 0; j < r; j++ {
		gi := j / g
		dyFull[j] = tensor.New(egg, tpad, mdim)
		dxFull[j] = tensor.New(egg, tpad, mdim)
		hb[j] = make([]*tensor.Tensor, egg)
		for le := 0; le < egg; le++ {
			ex := s.experts[gi*egg+le]
			hb[j][le] = tensor.New(ex.BwdBands()*tpad, ex.HiddenWidth())
		}
	}
	h := s.pass(w, p, cache)
	ranges := comm.SplitRows(spad, w.cfg.ChunksBwd)

	// Phase 1 — every chunk's combine-gradient step (the adjoint of the
	// forward combine), back to back.
	first := make([]int, len(ranges))
	for c, rr := range ranges {
		first[c] = h.outbound(c, "C", dpad.Data(), rr)
	}

	// Gradient-sync emit point 0: slices enqueued here run on the inter
	// stream in the slack while the in-group stages run, before the first
	// dispatch-gradient lanes (with one group the inter stream carries no
	// layer collective at all).
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// Phase 2 — per chunk: land and share dy in-group, adjoint stage 2
	// (column-sharded), hidden gradient exchange, adjoint stage 1
	// (row-sharded), and the dX return to the token side. Emit point c+1
	// trails the chunk's last outbound collective.
	var b2Last []int
	for c, rr := range ranges {
		rr := rr
		rows := r * rr.Len()
		var emit func()
		if w.sync != nil {
			emit = func() { w.sync.EmitAt(p, "inter", c+1) }
		}
		b1IDs := h.inbound(fmt.Sprintf("d%d", c), first[c], dyFull, rr, func(j, dep int) int {
			gi := j / g
			return p.Add(fmt.Sprintf("B1%d[%d]", c, j), KindExpert, computeStream(j),
				s.groupEst(gi, rows)/float64(g), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						dyv := expertView(dyFull[j], le, tpad, mdim)
						for i := 0; i < r; i++ {
							ex.BackwardHidden(hc.scs[j][le], dyv, hb[j][le], i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, dep)
		})
		unpackB := h.hiddenExchange(fmt.Sprintf("b%d", c), hb, rr, false, b1IDs)
		b2Last = h.toTokens(c, fmt.Sprintf("d%d", c), "D", func(j, dep int) int {
			gi, m := j/g, j%g
			return p.Add(fmt.Sprintf("B2%d[%d]", c, j), KindExpert, computeStream(j),
				s.groupEst(gi, nG*rr.Len()), func() error {
					for le := 0; le < egg; le++ {
						ex := s.experts[gi*egg+le]
						dyv := expertView(dyFull[j], le, tpad, mdim)
						dxv := expertView(dxFull[j], le, tpad, mdim)
						for q := 0; q < nG; q++ {
							base := (q*g + m) * spad
							ex.BackwardIn(hc.scs[j][le], dyv, dxv, hb[j][le], base+rr.Lo, base+rr.Hi)
						}
					}
					return nil
				}, dep)
		}, unpackB, dxFull, dScatteredPad, rr, emit)
	}

	// Phase 3 — each expert's full-block parameter-gradient reduction on
	// its owner rank (the RankGrads mapping: expert e belongs to rank
	// e/eg, which is member (e/eg) mod g of group e/Egg), from the
	// assembled full-width buffers; the owner releases its group
	// co-members' shard state. Every rank's last adjoint task gates these:
	// the owner's hb and dy are complete, and no member state is in use.
	for j := 0; j < r; j++ {
		j := j
		gi, m := j/g, j%g
		p.Add(fmt.Sprintf("W[%d]", j), KindExpert, computeStream(j),
			w.expertEst(j, tpad), func() error {
				for k := 0; k < s.eg; k++ {
					le := m*s.eg + k
					ex := s.experts[gi*egg+le]
					ex.FinishSharded(hc.scs[j][le], expertView(dyFull[j], le, tpad, mdim), hb[j][le])
					hc.scs[j][le] = nil
					for m2 := 0; m2 < g; m2++ {
						if m2 != m {
							ex.DropSharded(hc.scs[gi*g+m2][le])
							hc.scs[gi*g+m2][le] = nil
						}
					}
				}
				return nil
			}, b2Last...)
	}
}
