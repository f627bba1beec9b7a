// Package cluster is the fleet layer: N simulated gpusim nodes behind
// an explicit inter-node network, serving one model as replicated
// tensor-parallel instances with whole-node failover (Fleet), or as
// disaggregated prefill and decode pools (Disagg). Both drivers run on
// one node table (topology.go) whose nodes take the replica, spare,
// prefill or decode role.
//
// Topology and execution model. Each physical node keeps the PR-1
// intra-node model untouched — TP within the node over NVLink/PCIe,
// one core.Engine per node — and the fleet composes them over
// hw.NetworkSpec (IB or Ethernet: one-way latency, link bandwidth,
// oversubscription). The composition runs on one simclock.Sharded
// executor: shard 0 is the frontend (the serve.RunFleet router and the
// fleet control plane), shard i+1 is physical node i, and the
// conservative lookahead is the network's one-way latency. A node is
// never split further: its devices are coupled at zero latency
// (docs/PERF.md). Every cross-node interaction (a
// routed request, a completion notice, a health/failure notification,
// a replica rebind) crosses shards through Sharded.Post at +latency,
// so the fleet simulation is parallel across nodes AND byte-identical
// at any worker count.
//
// Replication and failover. Node i hosts replica i for i < Nodes; the
// remaining Spares idle. A faults.NodeFail event kills a whole node at
// its start instant: the node drops every in-flight completion (the
// work is lost with the node) and bounces later deliveries back to the
// router as lost. The frontend detects the loss one probe interval
// plus one network latency later, evicts the replica from the router
// (which re-dispatches the dead node's outstanding requests), and
// re-places the replica onto the lowest-indexed alive spare, paying a
// rebuild cost — the full weight transfer over the inter-node network
// plus the NCCL communicator bootstrap — before the replica rejoins
// the healthy set. With no spare left, the replica is gone for good
// and the fleet serves on at reduced capacity (or fails its backlog if
// none remains). Intra-node device failures keep their PR-3 semantics
// per node: the replica goes Down while its runtime re-plans onto the
// survivors, then Up.
package cluster

import (
	"fmt"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// DefaultProbeFactor sets the default health-probe interval as a
// multiple of the network one-way latency.
const DefaultProbeFactor = 25

// Config configures a Fleet.
type Config struct {
	// Cluster is the fleet topology: the per-node hardware, replica and
	// spare counts, and the inter-node network.
	Cluster hw.Cluster
	// Model is the transformer each replica serves.
	Model model.Spec
	// Runtime selects the per-replica execution engine.
	Runtime core.RuntimeKind
	// Liger tunes the scheduler (see core.Options.Liger); LigerSet marks
	// it explicitly configured.
	Liger    liger.Config
	LigerSet bool
	// Faults is the fleet-wide fault schedule: NodeFail events target
	// whole nodes by Event.Node; device-level events are split per node
	// and injected into that node's simulation. Validated against the
	// cluster shape (faults.ValidateCluster).
	Faults *faults.Schedule
	// Probe is the router's health-probe interval; it quantizes node-
	// loss detection (the frontend learns of a failure at fail + Probe +
	// network latency). Zero means DefaultProbeFactor × latency.
	Probe time.Duration
	// Workers sets the sharded executor's worker count; <= 1 runs the
	// windows serially. Results are byte-identical at any value.
	Workers int
}

// Fleet is a runnable fleet simulation. It implements
// serve.FleetRuntime; drive it with serve.RunFleet.
type Fleet struct {
	*topology
	cfg     Config
	probe   time.Duration
	rebuild time.Duration
	hooks   serve.RouterHooks

	// Frontend-owned views of the placement (the frontend never reads
	// node-shard state; it learns through posted notices and its own
	// decisions).
	replicaNode []int // replica id -> physical node, -1 while evicted
	nodeReplica []int // physical node -> replica id, -1 for spares
	spares      []int // alive unassigned nodes, ascending
	nodeDead    []bool

	evictions    int
	recoveryTime time.Duration
}

// New validates the configuration and builds the fleet: the sharded
// executor, one node simulation per shard, the initial replica
// placement, and the fault arming. Call serve.RunFleet to serve a
// trace on it; a Fleet is single-shot.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Probe < 0 {
		return nil, fmt.Errorf("cluster: negative probe interval %v", cfg.Probe)
	}
	topo, err := newTopology(cfg.Cluster, core.Options{
		Model:    cfg.Model,
		Runtime:  cfg.Runtime,
		Liger:    cfg.Liger,
		LigerSet: cfg.LigerSet,
	}, cfg.Faults, cfg.Workers)
	if err != nil {
		return nil, err
	}
	total := cfg.Cluster.TotalNodes()
	f := &Fleet{
		topology:    topo,
		cfg:         cfg,
		probe:       cfg.Probe,
		replicaNode: make([]int, cfg.Cluster.Nodes),
		nodeReplica: make([]int, total),
		nodeDead:    make([]bool, total),
	}
	if f.probe == 0 {
		f.probe = DefaultProbeFactor * time.Duration(f.latency)
	}
	// Re-placement cost: stream the full weights to the spare over the
	// inter-node network, then bootstrap the TP communicator.
	comm := nccl.New(cfg.Cluster.Node, nccl.Config{})
	f.rebuild = cfg.Cluster.Network.Transfer(cfg.Model.WeightBytes()) +
		comm.RebuildCost(cfg.Cluster.Node.NumGPUs)

	for i, n := range f.nodes {
		f.nodeReplica[i] = -1
		f.wireDispatch(n)
		f.wireNode(n)
	}
	for r := 0; r < cfg.Cluster.Nodes; r++ {
		f.replicaNode[r] = r
		f.nodeReplica[r] = r
		f.nodes[r].replica = r
	}
	for s := cfg.Cluster.Nodes; s < total; s++ {
		f.spares = append(f.spares, s)
	}
	if cfg.Faults != nil {
		f.armNodeFails(cfg.Faults.NodeFails())
	}
	return f, nil
}

// wireNode connects a replica node's intra-node failover to the
// router: the Down and Up notices cross to the frontend at +latency.
func (f *Fleet) wireNode(n *node) {
	shard := n.idx + 1
	if n.elast != nil {
		// Intra-node device failover: the replica leaves the healthy set
		// while the runtime re-plans, and rejoins at the resume instant.
		n.core.SimNode().OnFail(func(dev int, now simclock.Time) {
			if n.dead || n.replica < 0 {
				return
			}
			rep := n.replica
			f.sh.Post(shard, 0, now+f.latency, func(now simclock.Time) {
				f.hooks.Down(rep, now)
			})
		})
		n.elast.OnReconfigured(func(now simclock.Time) {
			if n.dead || n.replica < 0 {
				return
			}
			rep := n.replica
			f.sh.Post(shard, 0, now+f.latency, func(now simclock.Time) {
				f.hooks.Up(rep, now)
			})
		})
	}
}

// armNodeFails schedules every whole-node failure: the node-side death
// at the fail instant, and the frontend-side detection one probe
// interval plus one network latency later.
func (f *Fleet) armNodeFails(evs []faults.Event) {
	for _, ev := range evs {
		n := f.nodes[ev.Node]
		start := simclock.Time(ev.Start)
		n.eng.At(start, func(simclock.Time) {
			n.dead = true
		})
		detect := start + simclock.Time(f.probe) + f.latency
		idx := ev.Node
		f.front.At(detect, func(now simclock.Time) {
			f.detectNodeLoss(idx, start, now)
		})
	}
}

// detectNodeLoss is the frontend's reaction to a missed health probe:
// evict the dead node's replica from the router and re-place it onto
// spare capacity when any remains.
func (f *Fleet) detectNodeLoss(idx int, failedAt, now simclock.Time) {
	f.nodeDead[idx] = true
	rep := f.nodeReplica[idx]
	if rep < 0 {
		// A spare died: just remove it from the pool.
		for i, s := range f.spares {
			if s == idx {
				f.spares = append(f.spares[:i], f.spares[i+1:]...)
				break
			}
		}
		return
	}
	f.evictions++
	f.nodeReplica[idx] = -1
	f.replicaNode[rep] = -1
	f.hooks.Evicted(rep, now)
	if len(f.spares) == 0 {
		return // no spare capacity: the replica is gone for good
	}
	spare := f.spares[0]
	f.spares = f.spares[1:]
	upAt := now + simclock.Time(f.rebuild)
	// Rebind the spare's node-shard state at the rebuild instant (the
	// rebuild cost is at least one weight transfer, so the lookahead
	// contract holds), and bring the replica up in the router at the
	// same instant on the frontend.
	f.sh.Post(0, spare+1, upAt, func(simclock.Time) {
		f.nodes[spare].replica = rep
	})
	f.front.At(upAt, func(now simclock.Time) {
		if f.nodeDead[spare] {
			return // the spare died during the rebuild: recovery failed
		}
		f.replicaNode[rep] = spare
		f.nodeReplica[spare] = rep
		f.recoveryTime += time.Duration(now - failedAt)
		f.hooks.Up(rep, now)
	})
}

// RuntimeName implements serve.FleetRuntime.
func (f *Fleet) RuntimeName() string { return f.cfg.Runtime.String() }

// Replicas implements serve.FleetRuntime.
func (f *Fleet) Replicas() int { return f.cfg.Cluster.Nodes }

// Frontend implements serve.FleetRuntime.
func (f *Fleet) Frontend() *simclock.Engine { return f.front }

// SetRouter implements serve.FleetRuntime.
func (f *Fleet) SetRouter(h serve.RouterHooks) {
	f.hooks = h
	f.done = h.Done
}

// Dispatch implements serve.FleetRuntime: route request req to replica
// rep's node, paying one network latency for the delivery.
func (f *Fleet) Dispatch(rep, req int, w model.Workload) {
	idx := f.replicaNode[rep]
	if idx < 0 {
		panic(fmt.Sprintf("cluster: dispatch to evicted replica %d", rep))
	}
	f.dispatch(f.nodes[idx], rep, req, w)
}

// Run implements serve.FleetRuntime: execute the whole fleet to
// completion and release the worker pool.
func (f *Fleet) Run() error { return f.run() }

// FleetStats implements serve.FleetRuntime: failovers count whole-node
// evictions (re-placed or not) plus every intra-node device-failure
// recovery; recovery time sums node re-placement time (failure instant
// to the replica rejoining the router) and intra-node reconfiguration
// time.
func (f *Fleet) FleetStats() (int, time.Duration) {
	failovers, recovery := f.evictions, f.recoveryTime
	for _, n := range f.nodes {
		if n.elast == nil {
			continue
		}
		nf, nr := n.elast.FailoverStats()
		failovers += nf
		recovery += nr
	}
	return failovers, recovery
}
