package gpusim

import (
	"time"

	"liger/internal/hw"
)

// This file is the shard-partition analysis for lookahead-parallel
// execution (simclock.Sharded): given a hardware description, decide how
// the model's events could be split into conservatively-synchronized
// shards, and with what lookahead.
//
// The analysis is deliberately honest. A shard boundary is only sound if
// every physical coupling that crosses it has a positive minimum
// latency — the lookahead. Inside one simulated node, today's model has
// several couplings with NO latency at all, so the only sound partition
// of a single node is one shard:
//
//   - collective rendezvous rate propagation: when a kernel joins or
//     leaves a collective, Device.recompute re-times the kernels of
//     every member device at the same instant;
//   - node-wide contention: the memory-bandwidth contention model reads
//     the running set of all devices and republishes rates instantly;
//   - host completion callbacks: KernelSpec.OnDone and event observers
//     run at the completion instant and may immediately launch onto any
//     other device through shared host state;
//   - shared identity and pooling: stream/collective/kernel ids and the
//     command free-list are node-global mutable state.
//
// What does carry a positive minimum latency is the boundary BETWEEN
// nodes: any cross-node interaction pays at least the interconnect's
// point-to-point (or collective) startup latency, and host-mediated
// interactions pay launch/notify latencies on top. PlanShards therefore
// returns one domain per node with the inter-node minimum latency as the
// lookahead — which for the current single-node simulations collapses to
// one domain and no parallelism, and that is the truthful answer: the
// fleet-scale multi-node refactor (ROADMAP) is what unlocks it. The
// sharded engine itself is fully built and proven on synthetic
// multi-domain models (see simclock.Sharded and its tests/benchmarks).

// Coupling names one inter-partition interaction class and the minimum
// latency the model gives it. Zero-latency couplings are what force
// partitions to merge.
type Coupling struct {
	Name    string        `json:"name"`
	Latency time.Duration `json:"latency_ns"`
}

// ShardPlan is the result of the partition analysis.
type ShardPlan struct {
	// Domains is the number of independently-advancing shards the model
	// supports. 1 means sharded execution degenerates to the plain
	// engine (and callers must fall back to it — simclock.NewSharded
	// rejects lookahead 0).
	Domains int `json:"domains"`
	// Lookahead is the conservative window bound: the minimum latency of
	// any coupling crossing a shard boundary. Zero when Domains == 1.
	Lookahead time.Duration `json:"lookahead_ns"`
	// Couplings lists the zero-latency intra-node interactions that
	// prevent a finer partition (device-per-shard).
	Couplings []Coupling `json:"couplings"`
	// Boundary lists the positive-latency interactions that would define
	// the lookahead at the next-coarser boundary (node-per-shard), for
	// the multi-node future.
	Boundary []Coupling `json:"boundary"`
}

// Parallel reports whether the plan admits windowed parallel execution.
func (p ShardPlan) Parallel() bool { return p.Domains > 1 && p.Lookahead > 0 }

// PlanShards analyses a hardware description (one node today; the nodes
// slice form arrives with the multi-node refactor) and returns the
// soundest partition the model's couplings allow.
func PlanShards(spec hw.Node) ShardPlan {
	plan := ShardPlan{
		Domains: 1,
		Couplings: []Coupling{
			{Name: "collective-rendezvous-rate-propagation", Latency: 0},
			{Name: "node-wide-memory-contention-recompute", Latency: 0},
			{Name: "host-completion-callbacks (OnDone/Observe)", Latency: 0},
			{Name: "shared-ids-and-command-pool", Latency: 0},
		},
	}
	// The inter-node boundary latencies, smallest first: these are what
	// a node-per-shard partition would use as its lookahead.
	plan.Boundary = []Coupling{
		{Name: "interconnect-p2p-startup", Latency: spec.Interconnect.P2PLatency},
		{Name: "interconnect-collective-startup", Latency: spec.Interconnect.CollectiveLatency},
		{Name: "host-kernel-launch", Latency: spec.Host.LaunchLatency},
		{Name: "host-completion-notify", Latency: spec.Host.NotifyLatency},
	}
	return plan
}

// PlanCluster is the fleet-scale partition analysis: a cluster of N
// nodes behind an inter-node network supports one shard per node plus
// a frontend shard (the router/control plane), because every coupling
// that crosses a node boundary — a routed request, a completion
// notice, a health probe, a weight transfer — pays at least the
// network's one-way latency. That latency is the conservative
// lookahead simclock.Sharded runs with, so the fleet simulation is
// parallel AND byte-identical at any worker count.
func PlanCluster(c hw.Cluster) ShardPlan {
	plan := ShardPlan{
		// One shard per physical node plus the frontend shard.
		Domains:   c.TotalNodes() + 1,
		Lookahead: c.Network.Latency,
		Boundary: []Coupling{
			{Name: "network-one-way-latency", Latency: c.Network.Latency},
		},
	}
	// The intra-node couplings still pin each node to a single shard.
	plan.Couplings = PlanShards(c.Node).Couplings
	if plan.Lookahead <= 0 {
		// Degenerate network: no safe window, fall back to one domain.
		plan.Domains = 1
		plan.Lookahead = 0
	}
	return plan
}

// InterNodeLookahead returns the lookahead a node-per-shard partition of
// the given spec would get: the smallest positive boundary latency.
// Zero when the spec gives every boundary interaction zero latency (a
// degenerate spec — then even node-level sharding is unsound).
func InterNodeLookahead(spec hw.Node) time.Duration {
	min := time.Duration(0)
	for _, c := range PlanShards(spec).Boundary {
		if c.Latency > 0 && (min == 0 || c.Latency < min) {
			min = c.Latency
		}
	}
	return min
}

// EventCounters classifies every event the node schedules on its engine
// by subsystem — the queue-occupancy decomposition ligerprof
// -engine-stats reports next to the raw engine counters.
type EventCounters struct {
	// Stream counts command deliveries (launch/record/wait reaching the
	// device).
	Stream uint64 `json:"stream"`
	// Device counts kernel completion (re-)arms.
	Device uint64 `json:"device"`
	// Collective counts collective completion re-arms and watchdog arms.
	Collective uint64 `json:"collective"`
	// Host counts host-side events: completion notifications reaching
	// event observers and host-barrier callbacks.
	Host uint64 `json:"host"`
}

// Total sums all classes.
func (c EventCounters) Total() uint64 {
	return c.Stream + c.Device + c.Collective + c.Host
}

// EventCounters returns the per-subsystem scheduling counters.
func (n *Node) EventCounters() EventCounters {
	n.touch()
	return n.evCounts
}
