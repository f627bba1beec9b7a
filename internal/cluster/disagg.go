package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/core"
	"liger/internal/generate"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// Disaggregated serving: prefill and decode run on separate node
// pools. A request's prompt is prefilled on a prefill node, then its
// KV cache crosses the inter-node network — paying a full
// hw.NetworkSpec.Transfer of the prompt's cache bytes — to a decode
// node, which runs iteration-level decoding over a paged allocator
// (serve.ContinuousBatcher + kvcache.PagedManager). The split isolates
// the two phases' interference: prefill's long context batches never
// stall decode iterations, at the price of the transfer latency on
// every handoff.
//
// Execution reuses the fleet topology: shard 0 is the frontend (arrival
// process, routing, latency bookkeeping), shards 1..P the prefill
// nodes, shards P+1..P+D the decode nodes. Every cross-shard
// interaction is a Sharded.Post at +latency or more, so the simulation
// is parallel across nodes and byte-identical at any worker count.

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
	// Sequences, RatePerSec, PromptLen, GenTokens shape the workload
	// (Poisson arrivals, identical sequences — the generate idiom).
	Sequences  int
	RatePerSec float64
	PromptLen  int
	GenTokens  int
	// MaxPool caps each decode node's live pool.
	MaxPool int
	// KV shapes each decode node's paged allocator.
	KV kvcache.PagedConfig
	// Seed jitters arrivals.
	Seed int64
	// Workers sets the sharded executor's worker count; results are
	// byte-identical at any value.
	Workers int
	// IgnoreMemory skips placement checks and KV admission control.
	IgnoreMemory bool
	// Trace arms serving-layer telemetry: one trace.ServingRecorder per
	// shard (decode batcher iterations, sequence lifecycles, paged-KV
	// transitions, frontend KV-handoff spans), merged deterministically
	// after Run and exposed via ServingTrace. Recording never perturbs
	// the simulation.
	Trace bool
}

// Validate reports bad configurations.
func (c DisaggConfig) Validate() error {
	switch {
	case c.PrefillNodes < 1 || c.DecodeNodes < 1:
		return fmt.Errorf("cluster: disagg needs both pools, got %d prefill / %d decode", c.PrefillNodes, c.DecodeNodes)
	case c.Sequences <= 0:
		return fmt.Errorf("cluster: disagg needs sequences")
	case c.RatePerSec <= 0:
		return fmt.Errorf("cluster: disagg arrival rate %v", c.RatePerSec)
	case c.PromptLen <= 0 || c.GenTokens <= 0:
		return fmt.Errorf("cluster: disagg bad lengths %d/%d", c.PromptLen, c.GenTokens)
	case c.MaxPool <= 0:
		return fmt.Errorf("cluster: disagg pool size %d", c.MaxPool)
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	return c.Model.Validate()
}

// DisaggResult aggregates a disaggregated run. TTFT spans arrival to
// the prefill-completion notice reaching the frontend; TPOT is decode
// time per token from that notice (it absorbs the KV transfer — the
// disaggregation tax).
type DisaggResult struct {
	generate.Result
	// Makespan is the last sequence's completion instant.
	Makespan time.Duration
	// Iterations and MeanPool aggregate decode activity across nodes.
	Iterations int
	MeanPool   float64
	// Preemptions/RecomputedTokens price decode-side memory pressure.
	Preemptions      int
	RecomputedTokens int
	// KVTransfers counts prefill→decode handoffs; KVTransferBytes the
	// total cache bytes that crossed the network.
	KVTransfers     int
	KVTransferBytes int64
	// KVPeakBlocks is the highest per-node paged-allocator block
	// high-water mark across the decode pool (0 with IgnoreMemory).
	KVPeakBlocks int
}

// prefillNode is one prefill-pool node (shard idx+1).
type prefillNode struct {
	idx  int
	eng  *simclock.Engine
	rt   runtimes.Runtime
	tag  runtimes.Tagged
	subs []int // completion ID -> sequence id
	err  error
}

// decodeNode is one decode-pool node (shard PrefillNodes+idx+1).
type decodeNode struct {
	idx   int
	shard int
	eng   *simclock.Engine
	kv    *kvcache.PagedManager
	cb    *serve.ContinuousBatcher
	// rec is the node's shard-local serving recorder (nil untraced).
	rec *trace.ServingRecorder
}

// Disagg is a runnable disaggregated simulation; single-shot.
type Disagg struct {
	cfg     DisaggConfig
	sh      *simclock.Sharded
	front   *simclock.Engine
	latency simclock.Time

	prefills []*prefillNode
	decodes  []*decodeNode

	// frontRec is the frontend shard's serving recorder (nil untraced):
	// system arrival / first-token / finish lifecycle instants plus the
	// KV-handoff spans the frontend prices.
	frontRec *trace.ServingRecorder

	// Frontend-owned routing and bookkeeping.
	prefillLoad []int
	decodeLoad  []int
	seqDecode   []int
	arrived     []simclock.Time
	firstTok    []simclock.Time
	finished    []simclock.Time
	completed   int
	transfers   int
	kvBytes     int64
}

// NewDisagg validates the configuration and builds the two pools over
// one sharded executor.
func NewDisagg(cfg DisaggConfig) (*Disagg, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := hw.Cluster{
		Name:    "disagg",
		Node:    cfg.Node,
		Nodes:   cfg.PrefillNodes + cfg.DecodeNodes,
		Network: cfg.Network,
	}
	plan := gpusim.PlanCluster(topo)
	if !plan.Parallel() {
		return nil, fmt.Errorf("cluster: network %q admits no lookahead window", cfg.Network.Name)
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	d := &Disagg{
		cfg:         cfg,
		sh:          simclock.NewSharded(plan.Domains, plan.Lookahead, workers),
		latency:     plan.Lookahead,
		prefillLoad: make([]int, cfg.PrefillNodes),
		decodeLoad:  make([]int, cfg.DecodeNodes),
		seqDecode:   make([]int, cfg.Sequences),
		arrived:     make([]simclock.Time, cfg.Sequences),
		firstTok:    make([]simclock.Time, cfg.Sequences),
		finished:    make([]simclock.Time, cfg.Sequences),
	}
	d.front = d.sh.Shard(0)
	if cfg.Trace {
		d.frontRec = trace.NewServingRecorder()
		d.frontRec.SetPool(-1)
	}

	newEngine := func(shard int) (*core.Engine, error) {
		return core.NewEngine(core.Options{
			Node:         cfg.Node,
			Model:        cfg.Model,
			Runtime:      cfg.Runtime,
			Liger:        cfg.Liger,
			LigerSet:     cfg.LigerSet,
			IgnoreMemory: cfg.IgnoreMemory,
			Clock:        d.sh.Shard(shard),
		})
	}
	for i := 0; i < cfg.PrefillNodes; i++ {
		eng, err := newEngine(i + 1)
		if err != nil {
			return nil, fmt.Errorf("cluster: prefill node %d: %w", i, err)
		}
		p := &prefillNode{idx: i, eng: d.sh.Shard(i + 1), rt: eng.Runtime()}
		p.tag, _ = p.rt.(runtimes.Tagged)
		d.prefills = append(d.prefills, p)
		d.wirePrefill(p)
	}
	for i := 0; i < cfg.DecodeNodes; i++ {
		shard := cfg.PrefillNodes + i + 1
		eng, err := newEngine(shard)
		if err != nil {
			return nil, fmt.Errorf("cluster: decode node %d: %w", i, err)
		}
		n := &decodeNode{idx: i, shard: shard, eng: d.sh.Shard(shard)}
		if !cfg.IgnoreMemory {
			kv, err := kvcache.NewPaged(cfg.Node, cfg.Model, cfg.MaxPool, cfg.PromptLen+cfg.GenTokens, cfg.KV)
			if err != nil {
				return nil, fmt.Errorf("cluster: decode node %d: %w", i, err)
			}
			n.kv = kv
		}
		var alloc serve.KVAllocator
		if n.kv != nil {
			alloc = n.kv
		}
		nodeIdx := i
		cb, err := serve.NewContinuousBatcher(eng.Runtime(), alloc, cfg.MaxPool, serve.ContinuousHooks{
			Finished: func(id int, now simclock.Time) {
				d.sh.Post(shard, 0, now+d.latency, func(now simclock.Time) {
					d.seqFinished(nodeIdx, id, now)
				})
			},
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: decode node %d: %w", i, err)
		}
		eng.Runtime().SetOnDone(cb.OnDone)
		n.cb = cb
		if cfg.Trace {
			n.rec = trace.NewServingRecorder()
			n.rec.SetPool(i)
			cb.SetTracer(n.rec, i)
			if n.kv != nil {
				n.kv.SetTracer(n.rec, n.eng.Now)
			}
		}
		d.decodes = append(d.decodes, n)
	}
	d.armArrivals()
	return d, nil
}

// wirePrefill routes a prefill node's completions back to the frontend.
func (d *Disagg) wirePrefill(p *prefillNode) {
	shard := p.idx + 1
	p.rt.SetOnDone(func(c runtimes.Completion) {
		seq := p.subs[c.ID]
		d.sh.Post(shard, 0, c.Done+d.latency, func(now simclock.Time) {
			d.prefillDone(p.idx, seq, now)
		})
	})
}

// armArrivals schedules the Poisson arrival process on the frontend.
func (d *Disagg) armArrivals() {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	gap := time.Duration(float64(time.Second) / d.cfg.RatePerSec)
	var at simclock.Time
	for i := 0; i < d.cfg.Sequences; i++ {
		seq := i
		d.front.At(at, func(now simclock.Time) {
			d.arrived[seq] = now
			if d.frontRec != nil {
				d.frontRec.SeqEvent(serve.SeqEvent{
					Pool: -1, Seq: seq, Kind: serve.SeqArrive, At: now, Tokens: d.cfg.PromptLen,
				})
			}
			d.routePrefill(seq, now)
		})
		at += time.Duration(rng.ExpFloat64() * float64(gap))
	}
}

// routePrefill sends one sequence to the least-loaded prefill node
// (lowest index on ties — deterministic).
func (d *Disagg) routePrefill(seq int, now simclock.Time) {
	best := 0
	for i := 1; i < len(d.prefillLoad); i++ {
		if d.prefillLoad[i] < d.prefillLoad[best] {
			best = i
		}
	}
	d.prefillLoad[best]++
	p := d.prefills[best]
	w := model.Workload{Batch: 1, SeqLen: d.cfg.PromptLen, Phase: model.Context}
	d.sh.Post(0, best+1, now+d.latency, func(simclock.Time) {
		p.subs = append(p.subs, seq)
		var err error
		if p.tag != nil {
			err = p.tag.SubmitReq(w, seq)
		} else {
			err = p.rt.Submit(w)
		}
		if err != nil && p.err == nil {
			p.err = fmt.Errorf("cluster: prefill node %d submit: %w", p.idx, err)
		}
	})
}

// prefillDone runs on the frontend: the prompt's first token exists;
// hand the KV cache to the least-loaded decode node, paying the full
// cache transfer over the inter-node network.
func (d *Disagg) prefillDone(pIdx, seq int, now simclock.Time) {
	d.prefillLoad[pIdx]--
	d.firstTok[seq] = now
	best := 0
	for i := 1; i < len(d.decodeLoad); i++ {
		if d.decodeLoad[i] < d.decodeLoad[best] {
			best = i
		}
	}
	d.decodeLoad[best]++
	d.seqDecode[seq] = best
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
	d.sh.Post(0, n.shard, at, func(now simclock.Time) {
		n.cb.Add(serve.GenSeq{
			ID:        seq,
			Prompt:    d.cfg.PromptLen,
			Gen:       d.cfg.GenTokens,
			Prefilled: true,
		}, now)
	})
}

// seqFinished runs on the frontend when a decode node completes a
// sequence.
func (d *Disagg) seqFinished(nodeIdx, seq int, now simclock.Time) {
	d.decodeLoad[nodeIdx]--
	d.finished[seq] = now
	d.completed++
	if d.frontRec != nil {
		d.frontRec.SeqEvent(serve.SeqEvent{
			Pool: -1, Seq: seq, Kind: serve.SeqFinish, At: now, Tokens: d.cfg.GenTokens,
		})
	}
}

// Run executes the simulation to completion and aggregates the result.
func (d *Disagg) Run() (DisaggResult, error) {
	res := DisaggResult{}
	func() {
		defer d.sh.Close()
		d.sh.Run()
	}()
	for _, p := range d.prefills {
		if p.err != nil {
			return res, p.err
		}
	}
	for _, n := range d.decodes {
		if err := n.cb.Err(); err != nil {
			return res, fmt.Errorf("cluster: decode node %d: %w", n.idx, err)
		}
		// A corrupted KV ledger fails the run instead of passing as a
		// success.
		if n.kv != nil {
			if err := n.kv.InvariantErr(); err != nil {
				return res, fmt.Errorf("cluster: decode node %d: kv cache invariant violated: %w", n.idx, err)
			}
		}
	}
	if d.completed != d.cfg.Sequences {
		return res, fmt.Errorf("cluster: %d of %d sequences finished", d.completed, d.cfg.Sequences)
	}
	res.Makespan = res.Fold(d.arrived, d.firstTok, d.finished, d.cfg.GenTokens)
	var poolSum float64
	for _, n := range d.decodes {
		res.Iterations += n.cb.Iterations
		poolSum += float64(n.cb.PoolSum)
		res.Preemptions += n.cb.Preemptions
		res.RecomputedTokens += n.cb.RecomputedTokens
		if n.kv != nil && n.kv.PeakUsedBlocks() > res.KVPeakBlocks {
			res.KVPeakBlocks = n.kv.PeakUsedBlocks()
		}
	}
	if res.Iterations > 0 {
		res.MeanPool = poolSum / float64(res.Iterations)
	}
	res.KVTransfers = d.transfers
	res.KVTransferBytes = d.kvBytes
	return res, nil
}

// Stats exposes the windowed-execution counters for diagnostics.
func (d *Disagg) Stats() simclock.ShardStats { return d.sh.Stats() }

// ServingTrace merges the per-shard recorders into one normalized
// serving trace (nil unless DisaggConfig.Trace). Call after Run: the
// merge order is fixed (frontend, then decode pools by index) and
// every stream is stably time-sorted, so the result is byte-
// deterministic at any Workers value.
func (d *Disagg) ServingTrace() *trace.ServingRecorder {
	if d.frontRec == nil {
		return nil
	}
	merged := trace.NewServingRecorder()
	merged.Merge(d.frontRec)
	for _, n := range d.decodes {
		if n.rec != nil {
			merged.Merge(n.rec)
		}
	}
	merged.Normalize()
	return merged
}
