package cluster

import (
	"fmt"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// dispatchRec maps one node-runtime completion ID back to the request
// and the owner the frontend charged it to (a replica id, or a prefill
// node's index).
type dispatchRec struct {
	req   int
	owner int
}

// node is one physical node of the topology. It carries the fields of
// every role: a replica or spare (Fleet), a prefill node or a decode
// node (Disagg). All mutable fields are owned by the node's shard.
type node struct {
	idx    int // physical node index; its shard is idx+1
	eng    *simclock.Engine
	core   *core.Engine
	rt     runtimes.Runtime
	tagged runtimes.Tagged
	elast  runtimes.Elastic

	// Dispatch roles (replica, prefill): one record per submit, and the
	// first submit error.
	subs      []dispatchRec
	submitErr error

	// replica is the replica id this node hosts (-1 for an idle spare or
	// a Disagg node). Rebinding a spare onto an evicted replica's id
	// happens through a posted event on this node's shard.
	replica int
	// dead marks whole-node loss: completions are dropped and
	// deliveries bounce as lost.
	dead bool

	// Decode role: the shard-local serving recorder (nil untraced).
	rec *trace.Recorder
}

// topology is the node table both drivers run on: one simclock.Sharded
// executor whose shard 0 is the frontend and shard i+1 physical node i,
// with the network's one-way latency as the lookahead.
type topology struct {
	sh      *simclock.Sharded
	front   *simclock.Engine
	latency simclock.Time
	nodes   []*node
	// records is the record store every Liger node shares: its plan
	// cache, replay records and probe nodes (runtimes.Records).
	records *runtimes.Records
	// done is the frontend's handler for a dispatched request's notice:
	// completed, failed or bounced. It runs on shard 0.
	done func(owner, req int, status serve.DispatchStatus, now simclock.Time)
}

// newTopology validates the cluster and its fault schedule, and builds
// the sharded executor (one shard per physical node plus the frontend,
// the network's one-way latency as the lookahead; Validate guarantees it
// is positive) and one core engine per physical node from the opts
// template (its Node, Clock and Faults are set per node), joined to one
// record store. Device-level faults are split per node; whole-node
// failures are left to the caller.
func newTopology(cl hw.Cluster, opts core.Options, fs *faults.Schedule, workers int) (*topology, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	total := cl.TotalNodes()
	var perNode []faults.Schedule
	if fs != nil {
		if err := fs.ValidateCluster(total, cl.Node.NumGPUs); err != nil {
			return nil, err
		}
		perNode = fs.SplitByNode(total)
	}
	if workers < 1 {
		workers = 1
	}
	latency := simclock.Time(cl.Network.Latency)
	t := &topology{
		sh:      simclock.NewSharded(total+1, latency, workers),
		latency: latency,
		nodes:   make([]*node, total),
	}
	t.front = t.sh.Shard(0)
	opts.Node = cl.Node
	for i := range t.nodes {
		o := opts
		o.Clock = t.sh.Shard(i + 1)
		if perNode != nil && (len(perNode[i].Events) > 0 || perNode[i].CollTimeout > 0) {
			o.Faults = &perNode[i]
		}
		eng, err := core.NewEngine(o)
		if err != nil {
			t.sh.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		n := &node{idx: i, eng: o.Clock, core: eng, rt: eng.Runtime(), replica: -1}
		n.tagged, _ = n.rt.(runtimes.Tagged)
		n.elast, _ = n.rt.(runtimes.Elastic)
		t.nodes[i] = n
	}
	var err error
	if t.records, err = runtimes.ShareRecords(t.Runtimes()); err != nil {
		t.sh.Close()
		return nil, err
	}
	return t, nil
}

// dispatch routes request req, charged to owner, to node n's shard one
// network latency from the frontend's now.
func (t *topology) dispatch(n *node, owner, req int, w model.Workload) {
	t.sh.Post(0, n.idx+1, t.front.Now()+t.latency, func(now simclock.Time) {
		t.deliver(n, owner, req, w, now)
	})
}

// deliver runs on the node's shard: hand the request to the node's
// runtime, tagged with req when the runtime takes tags, or bounce it
// back to the frontend when the node cannot take it (dead, or
// mid-reconfiguration).
func (t *topology) deliver(n *node, owner, req int, w model.Workload, now simclock.Time) {
	if n.dead {
		t.notify(n, owner, req, serve.DispatchLost, now)
		return
	}
	if n.elast != nil && n.elast.Reconfiguring() {
		t.notify(n, owner, req, serve.DispatchBusy, now)
		return
	}
	// The record goes in before the submit, which may complete the batch
	// at once (a runtime that cannot run anything fails it in place). A
	// submit that errors took no batch ID, so its record comes out again:
	// the node's later completions index the records by batch ID.
	n.subs = append(n.subs, dispatchRec{req: req, owner: owner})
	var err error
	if n.tagged != nil {
		err = n.tagged.SubmitReq(w, req)
	} else {
		err = n.rt.Submit(w)
	}
	if err != nil {
		n.subs = n.subs[:len(n.subs)-1]
		// Surface the first submit error from run and bounce the request
		// into the frontend's failure path so accounting stays closed.
		if n.submitErr == nil {
			n.submitErr = fmt.Errorf("cluster: node %d submit: %w", n.idx, err)
		}
		t.notify(n, owner, req, serve.DispatchFailed, now)
	}
}

// notify posts a notice for (owner, req) from node n to the frontend one
// network latency after at.
func (t *topology) notify(n *node, owner, req int, status serve.DispatchStatus, at simclock.Time) {
	t.sh.Post(n.idx+1, 0, at+t.latency, func(now simclock.Time) {
		t.done(owner, req, status, now)
	})
}

// wireDispatch sends every completion of a dispatch-role node's runtime
// to the frontend as a notice.
func (t *topology) wireDispatch(n *node) {
	n.rt.SetOnDone(func(c runtimes.Completion) { t.completed(n, c) })
}

// completed sends the notice for completion c of dispatch-role node n
// to the frontend, charged to the request the batch was dispatched for.
func (t *topology) completed(n *node, c runtimes.Completion) {
	if n.dead {
		// The node died with this batch in flight: the work is lost and
		// no notice escapes. The router re-dispatches the request on
		// eviction (or on a lost-bounce), so it is still counted exactly
		// once.
		return
	}
	rec := n.subs[c.ID]
	status := serve.DispatchOK
	if c.Failed {
		status = serve.DispatchFailed
	}
	t.notify(n, rec.owner, rec.req, status, c.Done)
}

// run executes the topology to completion, releases the worker pool,
// and returns the first node's submit error.
func (t *topology) run() error {
	defer t.sh.Close()
	t.sh.Run()
	for _, n := range t.nodes {
		if n.submitErr != nil {
			return n.submitErr
		}
	}
	return nil
}

// NodeStats is one physical node's simulator counters: its shard
// engine's counters, its node's per-subsystem event counts, and its
// devices' utilization counters summed over the node.
type NodeStats struct {
	Engine  simclock.Stats
	Events  gpusim.EventCounters
	Devices gpusim.DeviceStats
}

// NodeStats returns every physical node's counters in node order, spares
// included. Read it after Run: the node engines run on the executor's
// workers until then.
func (t *topology) NodeStats() []NodeStats {
	out := make([]NodeStats, len(t.nodes))
	for i, n := range t.nodes {
		sim := n.core.SimNode()
		out[i] = NodeStats{Engine: n.eng.Stats(), Events: sim.EventCounters()}
		for _, d := range sim.Stats() {
			out[i].Devices = out[i].Devices.Add(d)
		}
	}
	return out
}

// Runtimes returns every physical node's runtime in node order, spares
// included. They run on the executor's workers during Run: use them
// before Run or after it.
func (t *topology) Runtimes() []runtimes.Runtime {
	out := make([]runtimes.Runtime, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.rt
	}
	return out
}

// RecordStats counts the records of the store the nodes share. Read it
// after Run.
func (t *topology) RecordStats() runtimes.RecordStats { return t.records.Stats() }

// ShardStats exposes the windowed-execution counters for diagnostics.
func (t *topology) ShardStats() simclock.ShardStats { return t.sh.Stats() }
