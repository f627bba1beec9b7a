// Package cluster is the fleet layer: N simulated gpusim nodes behind
// an explicit inter-node network, serving one model as replicated
// tensor-parallel instances with whole-node failover.
//
// Topology and execution model. Each physical node keeps the PR-1
// intra-node model untouched — TP within the node over NVLink/PCIe,
// one core.Engine per node — and the fleet composes them over
// hw.NetworkSpec (IB or Ethernet: one-way latency, link bandwidth,
// oversubscription). The composition runs on one simclock.Sharded
// executor: shard 0 is the frontend (the serve.RunFleet router and the
// fleet control plane), shard i+1 is physical node i, and the
// conservative lookahead is the network's one-way latency — exactly
// the gpusim.PlanCluster partition. Every cross-node interaction (a
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
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/runtimes"
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
	// IgnoreMemory skips the per-node placement check.
	IgnoreMemory bool
}

// dispatchRec maps one node-runtime completion ID back to the routed
// request and the replica the router charged it to.
type dispatchRec struct {
	req int
	rep int
}

// nodeState is one physical node's simulation plus its fleet-side
// wiring. All mutable fields are owned by the node's shard.
type nodeState struct {
	idx    int // physical node index; its shard is idx+1
	eng    *simclock.Engine
	core   *core.Engine
	rt     runtimes.Runtime
	tagged runtimes.Tagged
	elast  runtimes.Elastic
	// replica is the replica id this node hosts (-1 for an idle spare).
	// Rebinding a spare onto an evicted replica's id happens through a
	// posted event on this node's shard.
	replica int
	// dead marks whole-node loss: completions are dropped and
	// deliveries bounce as lost.
	dead      bool
	subs      []dispatchRec
	submitErr error
}

// Fleet is a runnable fleet simulation. It implements
// serve.FleetRuntime; drive it with serve.RunFleet.
type Fleet struct {
	cfg     Config
	sh      *simclock.Sharded
	front   *simclock.Engine
	nodes   []*nodeState
	latency simclock.Time
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
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.Probe < 0 {
		return nil, fmt.Errorf("cluster: negative probe interval %v", cfg.Probe)
	}
	total := cfg.Cluster.TotalNodes()
	if cfg.Faults != nil {
		if err := cfg.Faults.ValidateCluster(total, cfg.Cluster.Node.NumGPUs); err != nil {
			return nil, err
		}
	}
	plan := gpusim.PlanCluster(cfg.Cluster)
	if !plan.Parallel() {
		return nil, fmt.Errorf("cluster: network %q admits no lookahead window", cfg.Cluster.Network.Name)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	f := &Fleet{
		cfg:         cfg,
		sh:          simclock.NewSharded(plan.Domains, plan.Lookahead, workers),
		latency:     plan.Lookahead,
		probe:       cfg.Probe,
		replicaNode: make([]int, cfg.Cluster.Nodes),
		nodeReplica: make([]int, total),
		nodeDead:    make([]bool, total),
	}
	f.front = f.sh.Shard(0)
	if f.probe == 0 {
		f.probe = DefaultProbeFactor * time.Duration(f.latency)
	}
	// Re-placement cost: stream the full weights to the spare over the
	// inter-node network, then bootstrap the TP communicator.
	comm := nccl.New(cfg.Cluster.Node, nccl.Config{})
	f.rebuild = cfg.Cluster.Network.Transfer(cfg.Model.WeightBytes()) +
		comm.RebuildCost(cfg.Cluster.Node.NumGPUs)

	var perNode []faults.Schedule
	if cfg.Faults != nil {
		perNode = cfg.Faults.SplitByNode(total)
	}
	f.nodes = make([]*nodeState, total)
	for i := 0; i < total; i++ {
		opts := core.Options{
			Node:         cfg.Cluster.Node,
			Model:        cfg.Model,
			Runtime:      cfg.Runtime,
			Liger:        cfg.Liger,
			LigerSet:     cfg.LigerSet,
			IgnoreMemory: cfg.IgnoreMemory,
			Clock:        f.sh.Shard(i + 1),
		}
		if perNode != nil && (len(perNode[i].Events) > 0 || perNode[i].CollTimeout > 0) {
			sched := perNode[i]
			opts.Faults = &sched
		}
		eng, err := core.NewEngine(opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &nodeState{idx: i, eng: f.sh.Shard(i + 1), core: eng, rt: eng.Runtime(), replica: -1}
		n.tagged, _ = n.rt.(runtimes.Tagged)
		n.elast, _ = n.rt.(runtimes.Elastic)
		f.nodes[i] = n
		f.nodeReplica[i] = -1
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

// wireNode connects one node's runtime events to the frontend: every
// notice crosses the shard boundary through a Post at +latency.
func (f *Fleet) wireNode(n *nodeState) {
	shard := n.idx + 1
	n.rt.SetOnDone(func(c runtimes.Completion) {
		if n.dead {
			// The node died with this batch in flight: the work is lost
			// and no notice escapes. The router re-dispatches the request
			// on eviction (or on a lost-bounce), so it is still counted
			// exactly once.
			return
		}
		rec := n.subs[c.ID]
		status := serve.DispatchOK
		if c.Failed {
			status = serve.DispatchFailed
		}
		at := c.Done + f.latency
		f.sh.Post(shard, 0, at, func(now simclock.Time) {
			f.hooks.Done(rec.rep, rec.req, status, now)
		})
	})
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
		node := f.nodes[ev.Node]
		start := simclock.Time(ev.Start)
		node.eng.At(start, func(simclock.Time) {
			node.dead = true
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
func (f *Fleet) SetRouter(h serve.RouterHooks) { f.hooks = h }

// Dispatch implements serve.FleetRuntime: route request req to replica
// rep's node, paying one network latency for the delivery.
func (f *Fleet) Dispatch(rep, req int, w model.Workload) {
	idx := f.replicaNode[rep]
	if idx < 0 {
		panic(fmt.Sprintf("cluster: dispatch to evicted replica %d", rep))
	}
	node := f.nodes[idx]
	at := f.front.Now() + f.latency
	f.sh.Post(0, idx+1, at, func(now simclock.Time) {
		f.deliver(node, rep, req, w, now)
	})
}

// deliver runs on the node's shard: hand the request to the replica
// runtime, or bounce it back to the router when the node cannot take
// it (dead, or mid-reconfiguration).
func (f *Fleet) deliver(n *nodeState, rep, req int, w model.Workload, now simclock.Time) {
	shard := n.idx + 1
	if n.dead {
		f.sh.Post(shard, 0, now+f.latency, func(now simclock.Time) {
			f.hooks.Done(rep, req, serve.DispatchLost, now)
		})
		return
	}
	if n.elast != nil && n.elast.Reconfiguring() {
		f.sh.Post(shard, 0, now+f.latency, func(now simclock.Time) {
			f.hooks.Done(rep, req, serve.DispatchBusy, now)
		})
		return
	}
	n.subs = append(n.subs, dispatchRec{req: req, rep: rep})
	var err error
	if n.tagged != nil {
		err = n.tagged.SubmitReq(w, req)
	} else {
		err = n.rt.Submit(w)
	}
	if err != nil {
		// Surface the first submit error from Run and bounce the request
		// into the router's failure path so accounting stays closed.
		if n.submitErr == nil {
			n.submitErr = fmt.Errorf("cluster: node %d submit: %w", n.idx, err)
		}
		f.sh.Post(shard, 0, now+f.latency, func(now simclock.Time) {
			f.hooks.Done(rep, req, serve.DispatchFailed, now)
		})
	}
}

// Run implements serve.FleetRuntime: execute the whole fleet to
// completion and release the worker pool.
func (f *Fleet) Run() error {
	defer f.sh.Close()
	f.sh.Run()
	for _, n := range f.nodes {
		if n.submitErr != nil {
			return n.submitErr
		}
	}
	return nil
}

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

// NodeStats is one fleet node's simulator counters: its shard engine's
// counters, its node's per-subsystem event counts, and its devices'
// utilization counters summed over the node.
type NodeStats struct {
	Engine  simclock.Stats
	Events  gpusim.EventCounters
	Devices gpusim.DeviceStats
}

// NodeStats returns every physical node's counters in node order, spares
// included. Read it after Run: the node engines run on the executor's
// workers until then.
func (f *Fleet) NodeStats() []NodeStats {
	out := make([]NodeStats, len(f.nodes))
	for i, n := range f.nodes {
		sim := n.core.SimNode()
		out[i] = NodeStats{Engine: n.eng.Stats(), Events: sim.EventCounters()}
		for _, d := range sim.Stats() {
			out[i].Devices = out[i].Devices.Add(d)
		}
	}
	return out
}

// ShardStats exposes the windowed-execution counters for diagnostics.
func (f *Fleet) ShardStats() simclock.ShardStats { return f.sh.Stats() }

// Plan returns the fleet's shard-partition analysis.
func (f *Fleet) Plan() gpusim.ShardPlan { return gpusim.PlanCluster(f.cfg.Cluster) }
