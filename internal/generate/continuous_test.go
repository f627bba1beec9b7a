package generate

import (
	"strings"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/serve"
)

func contCfg() ContinuousConfig {
	return ContinuousConfig{
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 12, RatePerSec: 500, PromptLen: 32, GenTokens: 6, MaxPool: 8, Seed: 1,
		},
	}
}

func TestContinuousCompletesAllSequences(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		t.Run(kind.String(), func(t *testing.T) {
			eng := engineFor(t, kind)
			res, err := RunContinuous(eng.Clock(), eng.Runtime(), contCfg())
			if err != nil {
				t.Fatal(err)
			}
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
	eng := engineFor(t, core.KindLiger)
	cfg := contCfg()
	cfg.MaxPool = 2
	res, err := RunContinuous(eng.Clock(), eng.Runtime(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPool > 2 {
		t.Fatalf("pool exceeded cap: %v", res.MeanPool)
	}
}

func TestContinuousPoolingBeatsStaticPerToken(t *testing.T) {
	// Pooling sequences into shared iterations amortizes every decode
	// step over more requests: time-per-token and total generation time
	// improve substantially over per-conversation static batches at the
	// same offered load (TTFT trades the other way — a new sequence
	// waits for the running iteration before its prefill).
	e1 := engineFor(t, core.KindIntraOp)
	cont, err := RunContinuous(e1.Clock(), e1.Runtime(), ContinuousConfig{
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 32, RatePerSec: 160, PromptLen: 32, GenTokens: 16, MaxPool: 8, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	run := func(kind core.RuntimeKind) serve.Result {
		e := engineFor(t, kind)
		res, err := RunContinuous(e.Clock(), e.Runtime(), ContinuousConfig{
			SequenceWorkload: serve.SequenceWorkload{
				Sequences: 32, RatePerSec: 160, PromptLen: 32, GenTokens: 16, MaxPool: 8, Seed: 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lg := run(core.KindLiger)
	intra := run(core.KindIntraOp)
	ratio := float64(lg.AvgLatency) / float64(intra.AvgLatency)
	if ratio > 1.05 || ratio < 0.95 {
		t.Fatalf("serial continuous chain: Liger %v vs Intra-Op %v (ratio %.3f, want ≈1)",
			lg.AvgLatency, intra.AvgLatency, ratio)
	}
}

func TestContinuousWithKVAdmission(t *testing.T) {
	eng := engineFor(t, core.KindLiger)
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B().WithLayers(8), 8, 32, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := contCfg()
	cfg.KV = kv
	if _, err := RunContinuous(eng.Clock(), eng.Runtime(), cfg); err != nil {
		t.Fatal(err)
	}
	if kv.Live() != 0 {
		t.Fatalf("%d sequences leaked from the cache", kv.Live())
	}
}

// tightPagedKV builds a paged allocator whose capacity sits between
// the workload's total prompt footprint and its worst-case peak, so
// every prompt admits but decoding must preempt. The node memory is
// solved from two probes (budget is linear in MemGB).
func tightPagedKV(t *testing.T, capTokens int) *kvcache.PagedManager {
	t.Helper()
	node := hw.A100Node()
	probe := func(memGB float64) int64 {
		node.GPU.MemGB = memGB
		m, err := kvcache.NewPaged(node, model.OPT30B(), 16, 512, kvcache.PagedConfig{BlockTokens: 16})
		if err != nil {
			t.Fatal(err)
		}
		return m.Budget()
	}
	b80, b40 := probe(80), probe(40)
	slope := float64(b80-b40) / 40 // budget bytes per GB
	m80, _ := kvcache.NewPaged(hw.A100Node(), model.OPT30B(), 16, 512, kvcache.PagedConfig{BlockTokens: 16})
	target := float64(capTokens) * float64(m80.BytesPerToken())
	node.GPU.MemGB = 80 + (target-float64(b80))/slope
	kv, err := kvcache.NewPaged(node, model.OPT30B(), 16, 512, kvcache.PagedConfig{BlockTokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := kv.TotalBlocks() * kv.BlockTokens()
	if got < capTokens-64 || got > capTokens+64 {
		t.Fatalf("tight allocator capacity %d tokens, want ≈%d", got, capTokens)
	}
	return kv
}

// The tentpole acceptance pin at the generate layer: with a paged
// allocator sized between prompt footprint and worst-case peak, the
// run preempts under pressure yet every sequence still completes, and
// the preempted work shows up as recomputed prefill tokens.
func TestContinuousPagedPreemptionCompletes(t *testing.T) {
	// 16 sequences of 256 prompt + 128 generated: 4096 prompt tokens fit
	// in a 5000-token pool, the 6144-token peak does not.
	kv := tightPagedKV(t, 5000)
	eng := engineFor(t, core.KindLiger)
	res, err := RunContinuous(eng.Clock(), eng.Runtime(), ContinuousConfig{
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 16, RatePerSec: 500, PromptLen: 256, GenTokens: 128, MaxPool: 16, Seed: 1,
		},
		KV: kv,
	})
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
	if kv.Live() != 0 || kv.FreeBlocks() != kv.TotalBlocks() {
		t.Fatalf("cache leaked: %d live, %d/%d free", kv.Live(), kv.FreeBlocks(), kv.TotalBlocks())
	}
	if kv.Violations() != 0 {
		t.Fatalf("%d invariant violations: %v", kv.Violations(), kv.InvariantErr())
	}
	// The same workload with ample memory never preempts and is faster.
	eng2 := engineFor(t, core.KindLiger)
	roomy, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B(), 16, 512, kvcache.PagedConfig{BlockTokens: 16})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunContinuous(eng2.Clock(), eng2.Runtime(), ContinuousConfig{
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 16, RatePerSec: 500, PromptLen: 256, GenTokens: 128, MaxPool: 16, Seed: 1,
		},
		KV: roomy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Preemptions != 0 {
		t.Fatalf("roomy allocator preempted %d times", base.Preemptions)
	}
	if res.AvgLatency <= base.AvgLatency {
		t.Fatalf("pressure run %v not slower than roomy run %v — recompute cost missing",
			res.AvgLatency, base.AvgLatency)
	}
}

// doubleRelease is a paged allocator whose owner releases one sequence
// twice — the accounting bug the allocator's invariant ledger records.
type doubleRelease struct {
	*kvcache.PagedManager
	seq int
}

func (d doubleRelease) Release(id int) {
	d.PagedManager.Release(id)
	if id == d.seq {
		d.PagedManager.Release(id)
	}
}

func TestContinuousDoubleReleaseFailsRun(t *testing.T) {
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B(), 16, 512, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, core.KindLiger)
	cfg := contCfg()
	cfg.KV = doubleRelease{PagedManager: kv, seq: 3}
	_, err = RunContinuous(eng.Clock(), eng.Runtime(), cfg)
	if err == nil || !strings.Contains(err.Error(), "double release") {
		t.Fatalf("run with a double-released sequence returned %v, want the invariant violation", err)
	}
	if kv.Violations() != 1 {
		t.Fatalf("%d violations recorded, want 1", kv.Violations())
	}
}

func TestContinuousLeakedSequenceFailsRun(t *testing.T) {
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B(), 16, 512, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, core.KindLiger)
	cfg := contCfg()
	cfg.KV = leakyRelease{PagedManager: kv, seq: 3}
	_, err = RunContinuous(eng.Clock(), eng.Runtime(), cfg)
	if err == nil || !strings.Contains(err.Error(), "kv cache still holds 1") {
		t.Fatalf("run that leaked a sequence returned %v, want the leak error", err)
	}
}

func TestContinuousValidation(t *testing.T) {
	bad := []serve.SequenceWorkload{
		{},
		{Sequences: 1, RatePerSec: 0, PromptLen: 1, GenTokens: 1, MaxPool: 1},
		{Sequences: 1, RatePerSec: 1, PromptLen: 0, GenTokens: 1, MaxPool: 1},
		{Sequences: 1, RatePerSec: 1, PromptLen: 1, GenTokens: 1, MaxPool: 0},
	}
	for i, w := range bad {
		if (ContinuousConfig{SequenceWorkload: w}).Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
