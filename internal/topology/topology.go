// Package topology describes the GPU clusters the paper evaluates on
// (Table 3) as cost-model presets for the discrete-event simulator.
//
// The paper's scheduler never sees hardware directly: it sees linear
// performance models t = α + β·n fitted from microbenchmarks (§4.1, Fig. 5).
// We therefore define each testbed by exactly those coefficients — taken
// from the paper's own fitted values in the Fig. 5 caption — and let the
// simulator draw "measured" durations from them (plus small deterministic
// noise, so that the profiling/fitting pipeline in internal/perfmodel has
// real work to do).
//
// Units everywhere: milliseconds and bytes. GEMM workload is measured in
// multiply-accumulate operations (MACs).
package topology

import "fmt"

// Cluster is a testbed preset.
type Cluster struct {
	Name        string
	Nodes       int
	GPUsPerNode int

	// GEMM cost: t = AlphaGEMM + macs*BetaGEMM (ms, MACs).
	AlphaGEMM, BetaGEMM float64

	// Collective costs for the canonical placement of §4 (MP and ESP
	// groups sized to one node; EP and DP spanning nodes):
	//   AlltoAll (inter-node), AllGather / ReduceScatter (intra-node),
	//   AllReduce (inter-node gradient sync).
	// t = Alpha + bytes*Beta (ms, bytes). These are the Fig. 5 fits.
	AlphaA2A, BetaA2A float64
	AlphaAG, BetaAG   float64
	AlphaRS, BetaRS   float64
	AlphaAR, BetaAR   float64

	// Flat (single-phase, per-peer) AlltoAll penalty, used to model the
	// NCCL direct algorithm DeepSpeed-MoE runs versus the hierarchical
	// 2DH algorithm of Tutel/FSMoE. Each extra peer adds FlatA2AAlphaPeer
	// of startup; bandwidth utilization drops by FlatA2ABWPenalty and
	// degrades further by FlatA2ACongestion per extra peer (many small
	// concurrent flows underutilize the NICs — the effect behind the
	// paper's widening DS-MoE gap at larger P and L, Figs. 6–7).
	FlatA2AAlphaPeer  float64
	FlatA2ABWPenalty  float64
	FlatA2ACongestion float64

	// IIOContention is the fractional slowdown intra-node collectives
	// suffer when deliberately overlapped with inter-node traffic (FSMoE's
	// IIO schedule): NCCL kernels contend for SMs, and on PCIe-only hosts
	// (Testbed B) the NIC shares the PCIe fabric with GPU peer-to-peer
	// traffic. Calibrated so the IIO ablation gap matches Table 5
	// (FSMoE-No-IIO → FSMoE ≈ +5%).
	IIOContention float64

	// NoiseAmp is the relative amplitude of the deterministic measurement
	// noise applied by the simulator (e.g. 0.02 = ±2%).
	NoiseAmp float64
}

// TotalGPUs returns Nodes*GPUsPerNode.
func (c *Cluster) TotalGPUs() int { return c.Nodes * c.GPUsPerNode }

// Validate reports configuration errors.
func (c *Cluster) Validate() error {
	if c.Nodes <= 0 || c.GPUsPerNode <= 0 {
		return fmt.Errorf("topology: cluster %q must have positive nodes and gpus per node", c.Name)
	}
	if c.BetaGEMM <= 0 || c.BetaA2A <= 0 || c.BetaAG <= 0 || c.BetaRS <= 0 || c.BetaAR <= 0 {
		return fmt.Errorf("topology: cluster %q has non-positive beta coefficients", c.Name)
	}
	return nil
}

// TestbedA models the paper's 48-GPU cluster: 6 nodes × 8 RTX A6000,
// NVLink intra-node, 200 Gb/s InfiniBand inter-node (Table 3). GEMM,
// AlltoAll and AllReduce coefficients are the paper's own Fig. 5(a)/(b)
// fits. The intra-node AllGather/ReduceScatter β is calibrated to NVLink
// (~50 GB/s effective per GPU) so that a GPT2-XL layer reproduces the
// Table 2 breakdown — the Fig. 5 caption's cluster-wide AG/RS fits are
// mutually inconsistent with Table 2 and with §4.2's t_ag ≈ t_rs
// assumption.
func TestbedA() *Cluster {
	return &Cluster{
		Name:        "A",
		Nodes:       6,
		GPUsPerNode: 8,
		AlphaGEMM:   4.26e-2, BetaGEMM: 2.29e-11,
		AlphaA2A: 2.87e-1, BetaA2A: 2.21e-7,
		AlphaAG: 3.37e-1, BetaAG: 2.00e-8,
		AlphaRS: 3.95e-1, BetaRS: 2.05e-8,
		AlphaAR: 5.11e-1, BetaAR: 4.95e-7,
		FlatA2AAlphaPeer:  2.0e-2,
		FlatA2ABWPenalty:  1.8,
		FlatA2ACongestion: 0.08,
		IIOContention:     0.9,
		NoiseAmp:          0.02,
	}
}

// TestbedB models the paper's 32-GPU cluster: 8 nodes × 4 RTX 2080Ti, PCIe
// 3.0 intra-node (no NVLink), 100 Gb/s InfiniBand inter-node (Table 3),
// with the Fig. 5(c)/(d) fitted coefficients.
func TestbedB() *Cluster {
	return &Cluster{
		Name:        "B",
		Nodes:       8,
		GPUsPerNode: 4,
		AlphaGEMM:   9.24e-2, BetaGEMM: 4.42e-11,
		AlphaA2A: 1.75e-1, BetaA2A: 3.06e-7,
		AlphaAG: 3.20e-2, BetaAG: 1.68e-7,
		AlphaRS: 3.91e-2, BetaRS: 1.67e-7,
		AlphaAR: 8.37e-2, BetaAR: 5.99e-7,
		FlatA2AAlphaPeer:  1.5e-2,
		FlatA2ABWPenalty:  1.8,
		FlatA2ACongestion: 0.08,
		IIOContention:     0.80, // NIC and GPU p2p share the PCIe fabric on 2080Ti hosts
		NoiseAmp:          0.02,
	}
}

// Note on TestbedA's AlphaAR/BetaAR: the paper prints α_ar=5.11e-1,
// β_ar=4.95e-6 for Testbed A. A β_ar ten times β_a2a is inconsistent with
// both the Fig. 5(a) plot (AllReduce stays inside a 25 ms axis at 1.5e7
// bytes) and with Testbed B, where β_ar/β_a2a ≈ 2. We keep the ratio
// observed on Testbed B (≈2.2×) and use 4.95e-7 instead.

// WithGPUs returns a copy of c resized to total GPUs, keeping GPUsPerNode.
// It is used by the Fig. 7 sweep (P ∈ {16, 32, 48} on Testbed A).
func (c *Cluster) WithGPUs(total int) *Cluster {
	if total%c.GPUsPerNode != 0 {
		panic(fmt.Sprintf("topology: %d GPUs not divisible by %d per node", total, c.GPUsPerNode))
	}
	out := *c
	out.Nodes = total / c.GPUsPerNode
	out.Name = fmt.Sprintf("%s-%dGPU", c.Name, total)
	return &out
}

// Scenario describes a parallelism layout on a cluster in the terms of §4:
// MP and ESP groups aligned to a node, EP across nodes, DP across the rest.
type Scenario struct {
	Cluster *Cluster
	NMP     int // workers per model-parallel group
	NESP    int // workers per expert-sharding group
	NEP     int // workers per expert-parallel group
	NDP     int // workers per data-parallel group
	NPP     int // pipeline-parallel stages
}

// CanonicalScenario builds the common case the paper optimizes
// (§4: N_MP = N_ESP = GPUs per node, N_EP = number of nodes) for the given
// cluster, with optional pipeline parallelism.
func CanonicalScenario(c *Cluster, npp int) (*Scenario, error) {
	if npp <= 0 {
		npp = 1
	}
	if c.Nodes%npp != 0 {
		return nil, fmt.Errorf("topology: %d nodes not divisible by NPP=%d", c.Nodes, npp)
	}
	nodesPerStage := c.Nodes / npp
	s := &Scenario{
		Cluster: c,
		NMP:     c.GPUsPerNode,
		NESP:    c.GPUsPerNode,
		NEP:     nodesPerStage,
		NDP:     nodesPerStage, // every node holds one DP replica of each expert shard group
		NPP:     npp,
	}
	return s, nil
}

// IntraNode reports whether a group of size g fits inside one node, which
// is what makes its collectives intra-node traffic (§2.2).
func (s *Scenario) IntraNode(g int) bool { return g <= s.Cluster.GPUsPerNode }
