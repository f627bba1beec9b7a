package generate

import (
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// The continuous tests serve on the one decode path, serve.DecodeNode
// and serve.Ledger, beside generate.Run's static conversations.

func contCfg() serve.DecodeNodeConfig {
	return serve.DecodeNodeConfig{
		Node:  hw.A100Node(),
		Model: model.OPT30B().WithLayers(8),
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 12, RatePerSec: 500, PromptLen: 32, GenTokens: 6, MaxPool: 8, Seed: 1,
		},
	}
}

// serveContinuous serves cfg's workload on eng as the single-node
// continuous run does: one decode node fed straight from the arrivals,
// and the ledger whose Result checks and folds the run.
func serveContinuous(t *testing.T, eng *core.Engine, cfg serve.DecodeNodeConfig) (serve.Result, *serve.DecodeNode, *serve.Ledger, error) {
	t.Helper()
	ledger := serve.NewLedger(cfg.Sequences, cfg.GenTokens)
	cfg.Hooks = ledger.Hooks()
	node, err := serve.NewDecodeNode(eng.Clock(), eng.Runtime(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Arrive(eng.Clock(), func(id int, now simclock.Time) {
		ledger.Arrive(id, now)
		node.Add(id, false, now)
	})
	eng.Clock().Run()
	res, err := ledger.Result(eng.Runtime().Name(), node)
	return res, node, ledger, err
}

// mustServe serves cfg on a fresh engine of kind and fails the test
// on a run error.
func mustServe(t *testing.T, kind core.RuntimeKind, cfg serve.DecodeNodeConfig) serve.Result {
	t.Helper()
	res, _, _, err := serveContinuous(t, engineFor(t, kind), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestContinuousCompletesAllSequences(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		t.Run(kind.String(), func(t *testing.T) {
			res := mustServe(t, kind, contCfg())
			if res.Completed != 12 || len(res.Latencies) != 12 {
				t.Fatalf("incomplete %+v", res)
			}
			if res.Iterations < 6 {
				t.Fatalf("only %d iterations for 6-token generations", res.Iterations)
			}
			if res.MeanPool <= 0 || res.MeanPool > 8 {
				t.Fatalf("mean pool %v", res.MeanPool)
			}
		})
	}
}

func TestContinuousRespectsMaxPool(t *testing.T) {
	cfg := contCfg()
	cfg.MaxPool = 2
	if res := mustServe(t, core.KindLiger, cfg); res.MeanPool > 2 {
		t.Fatalf("pool exceeded cap: %v", res.MeanPool)
	}
}

func TestContinuousPoolingBeatsStaticPerToken(t *testing.T) {
	// Pooling sequences into shared iterations amortizes every decode
	// step over more requests: time-per-token and total generation time
	// improve substantially over per-conversation static batches at the
	// same offered load (TTFT trades the other way — a new sequence
	// waits for the running iteration before its prefill).
	cfg := contCfg()
	cfg.SequenceWorkload = serve.SequenceWorkload{
		Sequences: 32, RatePerSec: 160, PromptLen: 32, GenTokens: 16, MaxPool: 8, Seed: 1,
	}
	cont := mustServe(t, core.KindIntraOp, cfg)
	e2 := engineFor(t, core.KindIntraOp)
	static, err := Run(e2.Clock(), e2.Runtime(), Config{
		Conversations: 8, BatchSize: 4, PromptLen: 32, GenTokens: 16,
		ArrivalGap: 25 * time.Millisecond, // same 160 seq/s mean
	})
	if err != nil {
		t.Fatal(err)
	}
	if cont.TPOT >= static.AvgTPOT() {
		t.Fatalf("continuous time/token %v not below static %v", cont.TPOT, static.AvgTPOT())
	}
	if cont.AvgLatency >= static.AvgTotal() {
		t.Fatalf("continuous total %v not below static %v", cont.AvgLatency, static.AvgTotal())
	}
}

func TestContinuousSerialChainDegeneratesLiger(t *testing.T) {
	// A reproduction finding: continuous batching's strictly serial
	// iteration chain leaves Liger no concurrent batch to interleave
	// with, so Liger degenerates to Intra-Op (§3.1) — within scheduler
	// overhead. Liger's win in generative serving comes from running
	// *multiple* batches' iterations concurrently (see generate.Run and
	// TestLigerImprovesGeneration); it composes with batching policy
	// rather than replacing it.
	cfg := contCfg()
	cfg.SequenceWorkload = serve.SequenceWorkload{
		Sequences: 32, RatePerSec: 160, PromptLen: 32, GenTokens: 16, MaxPool: 8, Seed: 1,
	}
	lg := mustServe(t, core.KindLiger, cfg)
	intra := mustServe(t, core.KindIntraOp, cfg)
	ratio := float64(lg.AvgLatency) / float64(intra.AvgLatency)
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("serial continuous chain: Liger %v vs Intra-Op %v (ratio %.3f, want ≈1)",
			lg.AvgLatency, intra.AvgLatency, ratio)
	}
}

// The decode node's paged cache gates every admission and ends the run
// empty, its high-water mark reported.
func TestContinuousWithKVAdmission(t *testing.T) {
	res, node, _, err := serveContinuous(t, engineFor(t, core.KindLiger), contCfg())
	if err != nil {
		t.Fatal(err)
	}
	if node.KV.Live() != 0 {
		t.Fatalf("%d sequences leaked from the cache", node.KV.Live())
	}
	if res.KVPeakBlocks == 0 || res.KVPeakBlocks != node.KV.PeakUsedBlocks() {
		t.Fatalf("result peak %d blocks, cache peak %d", res.KVPeakBlocks, node.KV.PeakUsedBlocks())
	}
}

// pressureCfg is 16 sequences of 256 prompt + 128 generated tokens on
// OPT-30B: their 4096 prompt tokens fit in a 5000-token cache, their
// 6144-token peak does not.
func pressureCfg(t *testing.T) serve.DecodeNodeConfig {
	t.Helper()
	cfg := serve.DecodeNodeConfig{
		Model: model.OPT30B(),
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 16, RatePerSec: 500, PromptLen: 256, GenTokens: 128, MaxPool: 16, Seed: 1,
		},
		KV: kvcache.PagedConfig{BlockTokens: 16},
	}
	cfg.Node = tightNode(t, cfg, 5000)
	return cfg
}

// tightNode returns an A100 node whose paged cache for cfg holds about
// capTokens tokens: between the workload's total prompt footprint and
// its worst-case peak, so every prompt admits but decoding must
// preempt. The node memory is solved from two probes (budget is linear
// in MemGB).
func tightNode(t *testing.T, cfg serve.DecodeNodeConfig, capTokens int) hw.Node {
	t.Helper()
	node := hw.A100Node()
	paged := func(memGB float64) *kvcache.PagedManager {
		node.GPU.MemGB = memGB
		m, err := kvcache.NewPaged(node, cfg.Model, cfg.MaxPool, cfg.PromptLen+cfg.GenTokens, cfg.KV)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m40, m80 := paged(40), paged(80)
	slope := float64(m80.Budget()-m40.Budget()) / 40 // budget bytes per GB
	target := float64(capTokens) * float64(m80.BytesPerToken())
	kv := paged(80 + (target-float64(m80.Budget()))/slope)
	got := kv.TotalBlocks() * kv.BlockTokens()
	if got < capTokens-64 || got > capTokens+64 {
		t.Fatalf("tight cache capacity %d tokens, want ≈%d", got, capTokens)
	}
	return node
}

// The acceptance pin for paged preemption: with a cache sized
// between prompt footprint and worst-case peak, the run preempts under
// pressure yet every sequence still completes, and the preempted work
// shows up as recomputed prefill tokens.
func TestContinuousPagedPreemptionCompletes(t *testing.T) {
	res, node, _, err := serveContinuous(t, engineFor(t, core.KindLiger), pressureCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 16 || len(res.Latencies) != 16 {
		t.Fatalf("incomplete run: %+v", res)
	}
	if res.Preemptions == 0 {
		t.Fatal("no preemption despite engineered memory pressure")
	}
	if res.RecomputedTokens < 256 {
		t.Fatalf("recomputed %d tokens, want at least one full resume", res.RecomputedTokens)
	}
	kv := node.KV
	if kv.Live() != 0 || kv.FreeBlocks() != kv.TotalBlocks() {
		t.Fatalf("cache leaked: %d live, %d/%d free", kv.Live(), kv.FreeBlocks(), kv.TotalBlocks())
	}
	if kv.Violations() != 0 {
		t.Fatalf("%d invariant violations: %v", kv.Violations(), kv.InvariantErr())
	}
	// The same workload with ample memory never preempts and is faster.
	roomy := pressureCfg(t)
	roomy.Node = hw.A100Node()
	base := mustServe(t, core.KindLiger, roomy)
	if base.Preemptions != 0 {
		t.Fatalf("roomy cache preempted %d times", base.Preemptions)
	}
	if res.AvgLatency <= base.AvgLatency {
		t.Fatalf("pressure run %v not slower than roomy run %v — recompute cost missing",
			res.AvgLatency, base.AvgLatency)
	}
}

// The decode node rejects a bad workload.
func TestContinuousValidation(t *testing.T) {
	bad := []serve.SequenceWorkload{
		{},
		{Sequences: 1, RatePerSec: 0, PromptLen: 1, GenTokens: 1, MaxPool: 1},
		{Sequences: 1, RatePerSec: 1, PromptLen: 0, GenTokens: 1, MaxPool: 1},
		{Sequences: 1, RatePerSec: 1, PromptLen: 1, GenTokens: 1, MaxPool: 0},
	}
	for i, w := range bad {
		eng := engineFor(t, core.KindLiger)
		cfg := contCfg()
		cfg.SequenceWorkload = w
		if _, err := serve.NewDecodeNode(eng.Clock(), eng.Runtime(), cfg); err == nil {
			t.Errorf("bad workload %d accepted", i)
		}
	}
}
