package moe

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/tensor"
)

// Strategy names a parallel execution scheme for World — the §4
// generalized MoE layer's configuration axis made a first-class API
// object.
type Strategy string

const (
	// StrategyEP is pure expert parallelism: experts are sharded E/R per
	// rank, tokens move to their experts over r-chunked dispatch/combine
	// AlltoAll collectives on the shared inter stream, and each rank
	// computes its expert shard whole. Hard-routing plans only.
	StrategyEP Strategy = "ep"
	// StrategyESP is expert-sharding parallelism: every rank participates
	// in every expert's compute over a shard of the work, with r-chunked
	// AllGather stages feeding the sharded GEMMs and a ReduceScatter
	// returning each rank's slot rows, all on the shared intra stream
	// (§4's intra-node collective stages). Hard-routing plans only;
	// experts must implement ShardedExpert.
	StrategyESP Strategy = "esp"
	// StrategyDenseSlots runs dense (SoftMoE) plans through the EP
	// pipeline chunked over expert slots instead of token rows: slots are
	// sharded across ranks, dispatch/combine AlltoAll moves slot rows, and
	// the convex token mixing stays in the replicated gate/order stages.
	// Dense plans only.
	StrategyDenseSlots Strategy = "dense-slots"
	// StrategyHybrid is the §4 generalized configuration between the two
	// pure endpoints: the R ranks split into R/g expert-parallel groups of
	// g expert-sharding members (g = WorldConfig.GroupSize). Dispatch and
	// combine AlltoAll route tokens *between* groups on the shared inter
	// stream while AllGather/ReduceScatter and the sharded GEMM stages run
	// *within* each group on per-group intra collective streams. GroupSize
	// R is ESP itself (one builder: ESP is the one-group case) and
	// GroupSize 1 delegates to the EP builder, so both edges' plans are
	// exactly the pure strategies'. Hard-routing plans only; experts must
	// implement ShardedExpert at every group size.
	StrategyHybrid Strategy = "hybrid"
)

// ParallelStrategy builds the executable stream plans of one parallel
// scheme. World owns everything scheme-independent (prolog/epilog, slot
// padding, execution, traces); a strategy owns everything between the
// padded (E, Tpad, M) scattered buffer and the padded combined buffer —
// wire packing, collective chains, expert compute, and the gradient-sync
// emit points of the backward plan. One strategy instance belongs to one
// World.
type ParallelStrategy interface {
	// Name identifies the scheme.
	Name() Strategy
	// Validate checks the layer/config pairing at NewWorld time and primes
	// per-world state. Errors name the strategy and the unsupported
	// combination.
	Validate(l *MOELayer, cfg WorldConfig) error
	// PlanCheck validates each routed dispatch plan before a pass runs.
	PlanCheck(plan *DispatchPlan) error
	// Chunked reports whether the fine-grained expert execution contract
	// (ChunkedExpert or ShardedExpert) is in effect, as opposed to a
	// whole-block fallback.
	Chunked() bool
	// BuildForward appends the forward schedule to p: everything that
	// turns the padded scattered buffer into the padded combined buffer.
	BuildForward(w *World, p *runtime.Plan, cache *WorldCache, scatPad, combinedPad *tensor.Tensor)
	// BuildBackward appends the backward schedule to p: everything that
	// turns the padded output gradient dpad into the padded dScattered
	// buffer, accumulates expert parameter gradients on their owner
	// ranks, and drives w.sync's emit points.
	BuildBackward(w *World, p *runtime.Plan, cache *WorldCache, dpad, dScatteredPad *tensor.Tensor)
}

// strategyFor resolves a Strategy name to a fresh instance.
func strategyFor(s Strategy) (ParallelStrategy, error) {
	switch s {
	case StrategyEP:
		return &epStrategy{}, nil
	case StrategyESP, StrategyHybrid:
		return &hybridStrategy{name: s}, nil
	case StrategyDenseSlots:
		return &denseSlotsStrategy{}, nil
	default:
		return nil, fmt.Errorf("moe: unknown parallel strategy %q (valid: %s, %s, %s, %s)",
			s, StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid)
	}
}

// Strategies lists every built-in parallel strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyEP, StrategyESP, StrategyDenseSlots, StrategyHybrid}
}

// DenseRouter marks gates whose plans use dense (SoftMoE-style) routing.
// Strategy auto-selection uses it to choose StrategyDenseSlots without
// running a routing pass; custom dense gates should implement it.
type DenseRouter interface {
	DenseRouting() bool
}

// DenseRouting implements DenseRouter for the built-in SoftMoE gate.
func (g *SoftMoEGate) DenseRouting() bool { return true }
