package cluster

import (
	"fmt"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Disaggregated serving: prefill and decode run on separate node
// pools. A request's prompt is prefilled on a prefill node, then its
// KV cache crosses the inter-node network — paying a full
// hw.NetworkSpec.Transfer of the prompt's cache bytes — to a decode
// node, which runs iteration-level decoding over a paged allocator
// (serve.DecodeNode, the decode node a single-node continuous run
// serves on too). The split isolates the two phases' interference:
// prefill's long context batches never stall decode iterations, at the
// price of the transfer latency on every handoff.
//
// Execution runs on the fleet's node table (docs/FLEET.md § Topology):
// nodes 0..P-1 are the prefill pool, nodes P..P+D-1 the decode pool.
// The frontend runs the arrival process, routing and the run's
// serve.Ledger. Prefill requests take the fleet's dispatch and notice
// path; the KV handoff and the decode nodes' finish notices are posts
// of their own, at +latency or more.

// DisaggConfig configures a disaggregated prefill/decode run.
type DisaggConfig struct {
	// Node is the per-node hardware (all nodes identical); Network the
	// inter-node fabric the KV transfers cross.
	Node    hw.Node
	Network hw.NetworkSpec
	// PrefillNodes and DecodeNodes size the two pools.
	PrefillNodes int
	DecodeNodes  int
	// Model is the transformer served everywhere.
	Model model.Spec
	// Runtime selects the per-node execution engine.
	Runtime  core.RuntimeKind
	Liger    liger.Config
	LigerSet bool
	// SequenceWorkload shapes the workload; MaxPool caps each decode
	// node's live pool.
	serve.SequenceWorkload
	// KV shapes each decode node's paged allocator.
	KV kvcache.PagedConfig
	// Workers sets the sharded executor's worker count; results are
	// byte-identical at any value.
	Workers int
	// Trace arms serving-layer telemetry: one trace.Recorder per
	// shard (decode batcher iterations, sequence lifecycles, paged-KV
	// transitions, frontend KV-handoff spans), merged deterministically
	// after Run and exposed via ServingTrace. Recording never perturbs
	// the simulation.
	Trace bool
}

// Validate reports bad configurations.
func (c DisaggConfig) Validate() error {
	if c.PrefillNodes < 1 || c.DecodeNodes < 1 {
		return fmt.Errorf("cluster: disagg needs both pools, got %d prefill / %d decode", c.PrefillNodes, c.DecodeNodes)
	}
	if err := c.SequenceWorkload.Validate(); err != nil {
		return fmt.Errorf("cluster: disagg: %w", err)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Model.Validate()
}

// Disagg is a runnable disaggregated simulation; single-shot.
type Disagg struct {
	*topology
	cfg DisaggConfig

	// decodes is the decode pool: the node table's last DecodeNodes
	// nodes, indexed by pool position; decs holds their decode sides.
	decodes []*node
	decs    []*serve.DecodeNode

	// frontRec is the frontend shard's serving recorder (nil untraced):
	// system arrival / first-token / finish lifecycle instants plus the
	// KV-handoff spans the frontend prices.
	frontRec *trace.Recorder

	// Frontend-owned routing, KV handoff totals and sequence ledger.
	prefillLoad []int
	decodeLoad  []int
	transfers   int
	kvBytes     int64
	ledger      *serve.Ledger
}

// NewDisagg validates the configuration and builds the two pools over
// one sharded executor.
func NewDisagg(cfg DisaggConfig) (*Disagg, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := newTopology(hw.Cluster{
		Name:    "disagg",
		Node:    cfg.Node,
		Nodes:   cfg.PrefillNodes + cfg.DecodeNodes,
		Network: cfg.Network,
	}, core.Options{
		Model:    cfg.Model,
		Runtime:  cfg.Runtime,
		Liger:    cfg.Liger,
		LigerSet: cfg.LigerSet,
	}, nil, cfg.Workers)
	if err != nil {
		return nil, err
	}
	d := &Disagg{
		topology:    topo,
		cfg:         cfg,
		decodes:     topo.nodes[cfg.PrefillNodes:],
		prefillLoad: make([]int, cfg.PrefillNodes),
		decodeLoad:  make([]int, cfg.DecodeNodes),
		ledger:      serve.NewLedger(cfg.Sequences, cfg.GenTokens),
	}
	d.done = d.prefillDone
	if cfg.Trace {
		d.frontRec = trace.NewRecorder()
		d.frontRec.SetPool(-1)
	}
	for _, p := range topo.nodes[:cfg.PrefillNodes] {
		d.wireDispatch(p)
	}
	for i, n := range d.decodes {
		if err := d.wireDecode(i, n); err != nil {
			d.sh.Close()
			return nil, fmt.Errorf("cluster: decode node %d: %w", i, err)
		}
	}
	cfg.Arrive(d.front, func(seq int, now simclock.Time) {
		d.ledger.Arrive(seq, now)
		if d.frontRec != nil {
			d.frontRec.SeqEvent(serve.SeqEvent{
				Pool: -1, Seq: seq, Kind: serve.SeqArrive, At: now, Tokens: cfg.PromptLen,
			})
		}
		d.routePrefill(seq)
	})
	return d, nil
}

// wireDecode makes node n decode node i of the pool, and sends each
// finished sequence to the frontend.
func (d *Disagg) wireDecode(i int, n *node) error {
	shard := n.idx + 1
	if d.cfg.Trace {
		n.rec = trace.NewRecorder()
	}
	dec, err := serve.NewDecodeNode(n.eng, n.rt, serve.DecodeNodeConfig{
		Node:             d.cfg.Node,
		Model:            d.cfg.Model,
		SequenceWorkload: d.cfg.SequenceWorkload,
		KV:               d.cfg.KV,
		Recorder:         n.rec,
		Pool:             i,
		Hooks: serve.ContinuousHooks{
			Finished: func(id int, now simclock.Time) {
				d.sh.Post(shard, 0, now+d.latency, func(now simclock.Time) {
					d.seqFinished(i, id, now)
				})
			},
		},
	})
	d.decs = append(d.decs, dec)
	return err
}

// leastLoaded returns the index of the smallest load, the lowest index
// on ties — deterministic.
func leastLoaded(load []int) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}

// routePrefill sends one sequence to the least-loaded prefill node.
func (d *Disagg) routePrefill(seq int) {
	best := leastLoaded(d.prefillLoad)
	d.prefillLoad[best]++
	d.dispatch(d.nodes[best], best, seq, model.Workload{Batch: 1, SeqLen: d.cfg.PromptLen, Phase: model.Context})
}

// prefillDone is the frontend's notice handler for prefill node pIdx:
// the prompt's first token exists; hand the KV cache to the
// least-loaded decode node, paying the full cache transfer over the
// inter-node network. A failed prefill leaves its sequence unfinished,
// which fails the run.
func (d *Disagg) prefillDone(pIdx, seq int, status serve.DispatchStatus, now simclock.Time) {
	if status != serve.DispatchOK {
		return
	}
	d.prefillLoad[pIdx]--
	d.ledger.FirstToken(seq, now)
	best := leastLoaded(d.decodeLoad)
	d.decodeLoad[best]++
	n := d.decodes[best]
	bytes := d.cfg.Model.KVCacheBytes(d.cfg.PromptLen)
	d.transfers++
	d.kvBytes += bytes
	// Transfer includes one network latency, so the post clears the
	// lookahead window by construction.
	at := now + simclock.Time(d.cfg.Network.Transfer(bytes))
	if d.frontRec != nil {
		// The prefill-completion notice is the sequence's first-token
		// instant (the TTFT stamp); the handoff span prices the cache
		// transfer from the prefill node to the chosen decode pool.
		d.frontRec.SeqEvent(serve.SeqEvent{
			Pool: -1, Seq: seq, Kind: serve.SeqPrefillEnd, At: now, Tokens: d.cfg.PromptLen,
		})
		d.frontRec.KVHandoff(serve.KVHandoff{
			Seq: seq, Req: seq, From: pIdx, To: best, Bytes: bytes, Start: now, End: at,
		})
	}
	d.sh.Post(0, n.idx+1, at, func(now simclock.Time) {
		d.decs[best].Add(seq, true, now)
	})
}

// seqFinished runs on the frontend when a decode node completes a
// sequence.
func (d *Disagg) seqFinished(nodeIdx, seq int, now simclock.Time) {
	d.decodeLoad[nodeIdx]--
	d.ledger.Finish(seq, now)
	if d.frontRec != nil {
		d.frontRec.SeqEvent(serve.SeqEvent{
			Pool: -1, Seq: seq, Kind: serve.SeqFinish, At: now, Tokens: d.cfg.GenTokens,
		})
	}
}

// Run executes the simulation to completion and returns its result,
// checked and folded by the ledger (serve.Ledger.Result). TTFT spans
// arrival to the prefill-completion notice reaching the frontend; TPOT
// is decode time per token from that notice, so it absorbs the KV
// transfer (the disaggregation tax). The decode counters sum over the
// decode pool, and KVPeakBlocks is the highest node's paged-allocator
// high-water mark.
func (d *Disagg) Run() (serve.Result, error) {
	if err := d.run(); err != nil {
		return serve.Result{}, err
	}
	res, err := d.ledger.Result(d.cfg.Runtime.String(), d.decs...)
	if err != nil {
		return serve.Result{}, fmt.Errorf("cluster: %w", err)
	}
	return res, nil
}

// Handoffs returns the run's prefill-to-decode KV transfers and the
// cache bytes they carried over the network.
func (d *Disagg) Handoffs() (transfers int, bytes int64) {
	return d.transfers, d.kvBytes
}

// ServingTrace merges the per-shard recorders into one normalized
// serving trace (nil unless DisaggConfig.Trace). Call after Run: the
// merge order is fixed (frontend, then decode pools by index) and
// every stream is stably time-sorted, so the result is byte-
// deterministic at any Workers value.
func (d *Disagg) ServingTrace() *trace.Recorder {
	if d.frontRec == nil {
		return nil
	}
	merged := trace.NewRecorder()
	merged.Merge(d.frontRec)
	for _, n := range d.decodes {
		merged.Merge(n.rec)
	}
	merged.Normalize()
	return merged
}
