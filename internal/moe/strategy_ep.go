package moe

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// epStrategy is pure expert parallelism (§4.1), the scheme the original
// World hard-coded: rank j owns experts [j·E/R, (j+1)·E/R) and computes
// them whole; the dispatch AlltoAll moves rank i's slot rows for expert
// group j to rank j. Because the AlltoAll orders arrivals by source rank
// and the shards are contiguous row ranges, every expert sees exactly the
// rows of the single-rank layer in the same order, making the whole pass
// bit-identical to MOELayer.Forward/Backward at any (R, r).
//
// Streams: one global "inter" stream serializes the AlltoAll chunk
// collectives (the NIC of Figs. 3–4); each rank owns an "intra:<rank>"
// stream for local (un)packing between the wire layout and the expert
// blocks and a "compute:<rank>" stream for expert math. Expert chunk c
// can compute while chunk c+1 is on the wire — measured, not simulated.
type epStrategy struct {
	chunked bool // every expert implements ChunkedExpert
}

// epCache is the EP forward state Backward consumes.
type epCache struct {
	xBlocks   []*tensor.Tensor // per rank (Eg, Tpad, M) expert inputs
	outBlocks []*tensor.Tensor // per rank (Eg, Tpad, M) expert outputs
	ccs       [][]ChunkedCache // [rank][local expert], chunked mode; nil once finished
	expCaches [][]ExpertCache  // [rank][local expert], fallback mode
}

// Name implements ParallelStrategy.
func (s *epStrategy) Name() Strategy { return StrategyEP }

// Chunked implements ParallelStrategy.
func (s *epStrategy) Chunked() bool { return s.chunked }

// Validate implements ParallelStrategy: EP works with any expert; the
// chunk-granular path needs the ChunkedExpert contract from every expert,
// otherwise compute falls back to whole blocks per rank.
func (s *epStrategy) Validate(l *MOELayer, cfg WorldConfig) error {
	s.chunked = true
	for _, ex := range l.cfg.Experts {
		if _, ok := ex.(ChunkedExpert); !ok {
			s.chunked = false
			break
		}
	}
	return nil
}

// PlanCheck implements ParallelStrategy.
func (s *epStrategy) PlanCheck(plan *DispatchPlan) error {
	if plan.IsDense() {
		return fmt.Errorf("moe: strategy %q supports hard routing only (dense SoftMoE plans have no token rows to chunk); dense plans run under strategy %q",
			StrategyEP, StrategyDenseSlots)
	}
	return nil
}

// wireOff is the offset of (t, el, m) inside one (S rows × Eg·M wide)
// wire block.
func wireOff(t, el, m, eg, mdim int) int { return (t*eg+el)*mdim + m }

// xferGlobal copies chunk rows [rr.Lo, rr.Hi) of token-side rank i's slot
// shard between the padded global (E, Tpad, M) expert-major buffer and
// rank i's wire buffer, whose per-peer blocks are keyed by expert group.
// toWire selects the direction. Every forward/backward pack stage on the
// token side is this one loop, so wire-layout fixes cannot drift between
// the passes. Peers shard over pool (the comm staging allotment): each
// peer touches a disjoint wire block and a disjoint set of expert blocks,
// and the work is pure copies, so any width is bit-identical.
func xferGlobal(pool *tensor.Pool, wire, global []float64, ranks, eg, mdim, spad, tpad, i int, rr comm.RowRange, toWire bool) {
	blk := spad * eg * mdim
	pool.ParallelFor(ranks, func(p int) {
		wb := wire[p*blk : (p+1)*blk]
		for el := 0; el < eg; el++ {
			e := p*eg + el
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := wireOff(t, el, 0, eg, mdim)
				goff := (e*tpad + i*spad + t) * mdim
				if toWire {
					copy(wb[woff:woff+mdim], global[goff:goff+mdim])
				} else {
					copy(global[goff:goff+mdim], wb[woff:woff+mdim])
				}
			}
		}
	})
}

// xferLocal copies chunk rows between expert-side rank j's (Eg, Tpad, M)
// block and rank j's wire buffer, whose per-peer blocks are keyed by the
// token-side rank that owns each row segment. Peers shard over pool as in
// xferGlobal (disjoint wire blocks, disjoint row segments).
func xferLocal(pool *tensor.Pool, wire, block []float64, ranks, eg, mdim, spad, tpad int, rr comm.RowRange, toWire bool) {
	blk := spad * eg * mdim
	pool.ParallelFor(ranks, func(i int) {
		wb := wire[i*blk : (i+1)*blk]
		for el := 0; el < eg; el++ {
			for t := rr.Lo; t < rr.Hi; t++ {
				woff := wireOff(t, el, 0, eg, mdim)
				boff := (el*tpad + i*spad + t) * mdim
				if toWire {
					copy(wb[woff:woff+mdim], block[boff:boff+mdim])
				} else {
					copy(block[boff:boff+mdim], wb[woff:woff+mdim])
				}
			}
		}
	})
}

// a2aTask wraps one chunk collective, accumulating traffic stats (safe:
// all A2A tasks share the serialized "inter" stream). The fault guard is
// minted at plan-build time so in-collective injection is deterministic.
func (s *epStrategy) a2aTask(w *World, send, recv [][]float64, dims comm.BlockDims, rr comm.RowRange) func() error {
	c := w.collComm("inter", KindA2A, nil, w.cfg.GPUsPerNode)
	return func() error {
		st, err := c.AlltoAllRows(w.cfg.Algo, send, recv, dims, rr)
		if err != nil {
			return err
		}
		w.addStats(st)
		return nil
	}
}

// BuildForward implements ParallelStrategy.
func (s *epStrategy) BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor) {
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksFwd)
	dims := comm.BlockDims{Rows: spad, Width: eg * mdim}
	blk := dims.Elems()

	// Wire and block buffers.
	send := wireBuffers(R, R*blk)
	recv := wireBuffers(R, R*blk)
	csend := wireBuffers(R, R*blk)
	crecv := wireBuffers(R, R*blk)
	ec := &epCache{
		xBlocks:   rankBlocks(R, eg, tpad, mdim),
		outBlocks: rankBlocks(R, eg, tpad, mdim),
	}
	cache.sc = ec

	// Per-expert chunk caches (chunked mode) span the full padded block.
	if s.chunked {
		ec.ccs = make([][]ChunkedCache, R)
		for j := 0; j < R; j++ {
			ec.ccs[j] = make([]ChunkedCache, eg)
			for el := 0; el < eg; el++ {
				ec.ccs[j][el] = w.expert(j, el).(ChunkedExpert).BeginChunked(
					expertView(ec.xBlocks[j], el, tpad, mdim),
					expertView(ec.outBlocks[j], el, tpad, mdim),
					w.computePool(j))
			}
		}
		cache.onAbort(func() {
			for _, ccs := range ec.ccs {
				for _, cc := range ccs {
					if r, ok := cc.(chunkReleaser); ok {
						r.release()
					}
				}
			}
		})
	} else {
		ec.expCaches = make([][]ExpertCache, R)
		for j := 0; j < R; j++ {
			ec.expCaches[j] = make([]ExpertCache, eg)
		}
	}

	scatData := scatPad.Data()

	// Phase 1 — pack + dispatch for every chunk. Enqueueing all dispatch
	// collectives before any combine keeps the inter stream issuing them
	// back to back (the Fig. 3c/d ordering core.buildForwardLayer uses):
	// chunk c+1 is on the wire while chunk c computes, which is the whole
	// point of the pipeline. Interleaving D and C per chunk would serialize
	// D[c+1] behind C[c] — and C[c] waits on expert chunk c.
	dispIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, R)
		for i := 0; i < R; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("P%d[%d]", c, i), KindPack, intraStream(i),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), send[i], scatData, R, eg, mdim, spad, tpad, i, rr, true)
					return nil
				})
		}
		dispIDs[c] = p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, send, recv, dims, rr), packIDs...)
	}

	// Phase 2 — unpack + expert compute per chunk. expTask[c][j] is the
	// task the chunk's combine pack on rank j must wait for.
	expTask := s.emitForwardExperts(w, p, ec, cache, recv, dispIDs, ranges)

	// Phase 3 — combine every chunk back to the token side.
	for c, rr := range ranges {
		s.emitCombine(w, p, ec, cache, combinedPad, csend, crecv, dims, rr, c, expTask[c])
	}
}

// emitForwardExperts adds phase 2 of the forward plan: per-chunk unpack of
// the dispatch arrivals into the expert blocks and the expert compute on
// them. It returns expTask[c][j], the task id chunk c's combine pack on
// rank j depends on. Chunk-capable experts compute per chunk; fallback
// experts compute the whole block once every chunk has landed (so every
// expTask[c][j] is the same whole-block task).
func (s *epStrategy) emitForwardExperts(w *World, p *runtime.Plan, ec *epCache, cache *WorldCache, recv [][]float64, dispIDs []int, ranges []comm.RowRange) [][]int {
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	expTask := make([][]int, len(ranges))
	for c := range expTask {
		expTask[c] = make([]int, R)
	}
	unpackDeps := make([][]int, R) // fallback mode: all unpack ids per rank
	for c, rr := range ranges {
		rr := rr
		for j := 0; j < R; j++ {
			j := j
			unpack := p.Add(fmt.Sprintf("U%d[%d]", c, j), KindPack, intraStream(j),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferLocal(w.stagingPool(), recv[j], ec.xBlocks[j].Data(), R, eg, mdim, spad, tpad, rr, false)
					return nil
				}, dispIDs[c])
			if !s.chunked {
				unpackDeps[j] = append(unpackDeps[j], unpack)
				continue
			}
			expTask[c][j] = p.Add(fmt.Sprintf("E%d[%d]", c, j), KindExpert, computeStream(j),
				w.expertEst(j, rr.Len()*R), func() error {
					for el := 0; el < eg; el++ {
						cc := ec.ccs[j][el]
						ce := w.expert(j, el).(ChunkedExpert)
						for i := 0; i < R; i++ {
							ce.ForwardChunk(cc, i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpack)
		}
	}
	if !s.chunked {
		for j := 0; j < R; j++ {
			j := j
			id := p.Add(fmt.Sprintf("E[%d]", j), KindExpert, computeStream(j),
				w.expertEst(j, tpad), func() error {
					for el := 0; el < eg; el++ {
						in := expertView(ec.xBlocks[j], el, tpad, mdim)
						out := expertView(ec.outBlocks[j], el, tpad, mdim)
						ex := w.expert(j, el)
						if ie, ok := ex.(IntoExpert); ok {
							ec.expCaches[j][el] = ie.ForwardInto(in, out)
							continue
						}
						y, c := ex.Forward(in)
						ec.expCaches[j][el] = c
						copy(out.Data(), y.Data())
					}
					return nil
				}, unpackDeps[j]...)
			for c := range expTask {
				expTask[c][j] = id
			}
		}
	}
	return expTask
}

// emitCombine adds the combine-side tasks for chunk c: per-rank pack of
// the expert outputs into wire order (behind that rank's expert task for
// the chunk), the chunk's combine AlltoAll on the shared inter stream, and
// per-rank landing of the arrivals in the global padded combine buffer.
func (s *epStrategy) emitCombine(w *World, p *runtime.Plan, ec *epCache, cache *WorldCache, combinedPad *tensor.Tensor,
	csend, crecv [][]float64, dims comm.BlockDims, rr comm.RowRange, c int, expDone []int) {
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	packIDs := make([]int, R)
	for j := 0; j < R; j++ {
		j := j
		packIDs[j] = p.Add(fmt.Sprintf("R%d[%d]", c, j), KindPack, intraStream(j),
			estElems(R*eg*rr.Len()*mdim), func() error {
				xferLocal(w.stagingPool(), csend[j], ec.outBlocks[j].Data(), R, eg, mdim, spad, tpad, rr, true)
				return nil
			}, expDone[j])
	}
	comb := p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
		estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, csend, crecv, dims, rr), packIDs...)
	for i := 0; i < R; i++ {
		i := i
		p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, intraStream(i),
			estElems(R*eg*rr.Len()*mdim), func() error {
				xferGlobal(w.stagingPool(), crecv[i], combinedPad.Data(), R, eg, mdim, spad, tpad, i, rr, false)
				return nil
			}, comb)
	}
}

// BuildBackward implements ParallelStrategy.
func (s *epStrategy) BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor) {
	ec := cache.sc.(*epCache)
	R, eg, mdim := w.cfg.Ranks, w.egrp, w.layer.cfg.M
	spad, tpad := cache.spad, cache.tpad
	ranges := comm.SplitRows(spad, w.cfg.ChunksBwd)
	dims := comm.BlockDims{Rows: spad, Width: eg * mdim}
	blk := dims.Elems()

	dyBlocks := rankBlocks(R, eg, tpad, mdim)
	dxBlocks := rankBlocks(R, eg, tpad, mdim)
	gsend := wireBuffers(R, R*blk)
	grecv := wireBuffers(R, R*blk)
	dsend := wireBuffers(R, R*blk)
	drecv := wireBuffers(R, R*blk)

	dpd := dpad.Data()

	// Phase 1 — pack + combine-gradient AlltoAll for every chunk (the
	// adjoint of the forward combine), issued back to back on the inter
	// stream like the forward dispatches: the same Fig. 3c/d ordering,
	// here "all C, then all D", matching core.buildBackwardLayer.
	combIDs := make([]int, len(ranges))
	for c, rr := range ranges {
		rr := rr
		packIDs := make([]int, R)
		for i := 0; i < R; i++ {
			i := i
			packIDs[i] = p.Add(fmt.Sprintf("P%d[%d]", c, i), KindPack, intraStream(i),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), gsend[i], dpd, R, eg, mdim, spad, tpad, i, rr, true)
					return nil
				})
		}
		combIDs[c] = p.Add(fmt.Sprintf("C[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, gsend, grecv, dims, rr), packIDs...)
	}

	// Gradient-sync emit point 0: AllReduce slices enqueued here run on the
	// inter stream after the combine chain, in the slack while the expert
	// chunks compute, before the first dispatch-gradient AlltoAll.
	if w.sync != nil {
		w.sync.BeginLayer(len(ranges) + 1)
		w.sync.EmitAt(p, "inter", 0)
	}

	// Phase 2 — unpack + expert backward per chunk (dX rows only; weight
	// gradients wait for phase 4).
	expTask := make([][]int, len(ranges))
	for c := range expTask {
		expTask[c] = make([]int, R)
	}
	unpackDeps := make([][]int, R) // fallback mode
	for c, rr := range ranges {
		rr := rr
		for j := 0; j < R; j++ {
			j := j
			unpack := p.Add(fmt.Sprintf("U%d[%d]", c, j), KindPack, intraStream(j),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferLocal(w.stagingPool(), grecv[j], dyBlocks[j].Data(), R, eg, mdim, spad, tpad, rr, false)
					return nil
				}, combIDs[c])
			if !s.chunked {
				unpackDeps[j] = append(unpackDeps[j], unpack)
				continue
			}
			expTask[c][j] = p.Add(fmt.Sprintf("E%d[%d]", c, j), KindExpert, computeStream(j),
				w.expertEst(j, 2*rr.Len()*R), func() error {
					for el := 0; el < eg; el++ {
						ce := w.expert(j, el).(ChunkedExpert)
						dyv := expertView(dyBlocks[j], el, tpad, mdim)
						dxv := expertView(dxBlocks[j], el, tpad, mdim)
						for i := 0; i < R; i++ {
							ce.BackwardChunk(ec.ccs[j][el], dyv, dxv, i*spad+rr.Lo, i*spad+rr.Hi)
						}
					}
					return nil
				}, unpack)
		}
	}
	if !s.chunked {
		for j := 0; j < R; j++ {
			j := j
			id := p.Add(fmt.Sprintf("E[%d]", j), KindExpert, computeStream(j),
				w.expertEst(j, 2*tpad), func() error {
					for el := 0; el < eg; el++ {
						ex := w.expert(j, el)
						dyv := expertView(dyBlocks[j], el, tpad, mdim)
						dxv := expertView(dxBlocks[j], el, tpad, mdim)
						if ie, ok := ex.(IntoExpert); ok {
							ie.BackwardInto(ec.expCaches[j][el], dyv, dxv)
							continue
						}
						dxe := ex.Backward(ec.expCaches[j][el], dyv)
						copy(dxv.Data(), dxe.Data())
					}
					return nil
				}, unpackDeps[j]...)
			for c := range expTask {
				expTask[c][j] = id
			}
		}
	}

	// Phase 3 — dX pack + dispatch-gradient AlltoAll + landing per chunk.
	for c, rr := range ranges {
		rr := rr
		dgPackIDs := make([]int, R)
		for j := 0; j < R; j++ {
			j := j
			dgPackIDs[j] = p.Add(fmt.Sprintf("R%d[%d]", c, j), KindPack, intraStream(j),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferLocal(w.stagingPool(), dsend[j], dxBlocks[j].Data(), R, eg, mdim, spad, tpad, rr, true)
					return nil
				}, expTask[c][j])
		}
		dgrad := p.Add(fmt.Sprintf("D[%d]", c), KindA2A, "inter",
			estElems(R*R*eg*rr.Len()*mdim), s.a2aTask(w, dsend, drecv, dims, rr), dgPackIDs...)
		// Emit point c+1: slices here trail the c-th dispatch-gradient
		// chunk, overlapping the landing packs and later expert chunks.
		if w.sync != nil {
			w.sync.EmitAt(p, "inter", c+1)
		}
		for i := 0; i < R; i++ {
			i := i
			p.Add(fmt.Sprintf("V%d[%d]", c, i), KindPack, intraStream(i),
				estElems(R*eg*rr.Len()*mdim), func() error {
					xferGlobal(w.stagingPool(), drecv[i], dScatteredPad.Data(), R, eg, mdim, spad, tpad, i, rr, false)
					return nil
				}, dgrad)
		}
	}

	// Phase 4 — deferred full-block parameter-gradient reductions, off the
	// communication critical path (§4.1's W-grad tasks). The last expert
	// chunk on a rank implies every earlier one (stream order).
	if s.chunked {
		for j := 0; j < R; j++ {
			j := j
			p.Add(fmt.Sprintf("W[%d]", j), KindExpert, computeStream(j),
				w.expertEst(j, tpad), func() error {
					for el := 0; el < eg; el++ {
						ce := w.expert(j, el).(ChunkedExpert)
						ce.FinishBackward(ec.ccs[j][el], expertView(dyBlocks[j], el, tpad, mdim))
						ec.ccs[j][el] = nil
					}
					return nil
				}, expTask[len(ranges)-1][j])
		}
	}
}

// denseSlotsStrategy runs dense (SoftMoE) plans through the EP pipeline
// chunked over expert slots instead of token rows. A dense plan's
// (E, T, M) scattered buffer carries convex token mixtures in its slot
// rows; those rows shard, dispatch, compute and combine exactly like hard
// slots — the token mixing itself lives in the replicated gate/order
// prolog and epilog, outside the pipeline. Lifting the old "world
// supports hard routing only" rejection is therefore a plan-validation
// change, not a new data path: the schedules are the EP ones over slot
// rows.
type denseSlotsStrategy struct {
	epStrategy
}

// Name implements ParallelStrategy.
func (s *denseSlotsStrategy) Name() Strategy { return StrategyDenseSlots }

// PlanCheck implements ParallelStrategy.
func (s *denseSlotsStrategy) PlanCheck(plan *DispatchPlan) error {
	if !plan.IsDense() {
		return fmt.Errorf("moe: strategy %q requires a dense (SoftMoE) routing plan; hard top-k gates run under strategy %q or %q",
			StrategyDenseSlots, StrategyEP, StrategyESP)
	}
	return nil
}
