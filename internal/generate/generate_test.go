package generate

import (
	"strings"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/model"
	"liger/internal/simclock"
)

func baseCfg() Config {
	return Config{
		Conversations: 6,
		BatchSize:     2,
		PromptLen:     32,
		GenTokens:     5,
		ArrivalGap:    time.Millisecond,
	}
}

func engineFor(t *testing.T, kind core.RuntimeKind) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.Options{
		Node:    hw.A100Node(),
		Model:   model.OPT30B().WithLayers(8),
		Runtime: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRunCompletesAllConversations(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		t.Run(kind.String(), func(t *testing.T) {
			eng := engineFor(t, kind)
			res, err := Run(eng.Clock(), eng.Runtime(), baseCfg())
			if err != nil {
				t.Fatal(err)
			}
			if res.Conversations != 6 || len(res.TTFT) != 6 || len(res.TPOT) != 6 {
				t.Fatalf("incomplete result %+v", res)
			}
			if res.AvgTTFT() <= 0 || res.AvgTPOT() <= 0 || res.AvgTotal() < res.AvgTTFT() {
				t.Fatalf("implausible metrics: ttft %v tpot %v total %v",
					res.AvgTTFT(), res.AvgTPOT(), res.AvgTotal())
			}
		})
	}
}

func TestLigerImprovesGeneration(t *testing.T) {
	cfg := baseCfg()
	cfg.Conversations = 10
	cfg.ArrivalGap = 500 * time.Microsecond // dense: interleaving matters
	e1 := engineFor(t, core.KindLiger)
	lg, err := Run(e1.Clock(), e1.Runtime(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engineFor(t, core.KindIntraOp)
	intra, err := Run(e2.Clock(), e2.Runtime(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lg.AvgTotal() >= intra.AvgTotal() {
		t.Fatalf("Liger total %v not below intra-op %v under dense load", lg.AvgTotal(), intra.AvgTotal())
	}
}

func TestKVAdmissionQueues(t *testing.T) {
	eng := engineFor(t, core.KindLiger)
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B().WithLayers(8), 2, 32, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.KV = kv
	cfg.Conversations = 8
	cfg.ArrivalGap = 0 // all at once
	// Shrink capacity artificially by pre-admitting a huge sequence that
	// leaves room for fewer than three whole conversations.
	perConv := cfg.BatchSize * (cfg.PromptLen + cfg.GenTokens)
	hold := kv.TotalBlocks()*kv.BlockTokens() - 3*perConv
	if hold > 0 {
		if err := kv.Admit(99999, hold); err != nil {
			t.Fatal(err)
		}
	}
	// Free the hold once the run is underway so queued conversations can
	// proceed.
	eng.Clock().At(1, func(simclock.Time) { kv.Release(99999) })
	res, err := Run(eng.Clock(), eng.Runtime(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueuedForKV == 0 {
		t.Fatal("no conversation queued despite constrained cache")
	}
	if res.Conversations != 8 {
		t.Fatalf("%d conversations finished", res.Conversations)
	}
	if kv.Live() != 0 {
		t.Fatalf("%d sequences leaked", kv.Live())
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

// Run fails on a broken KV ledger like continuous serving does: a
// double release is an invariant violation, not a successful run.
func TestRunDoubleReleaseFailsRun(t *testing.T) {
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B().WithLayers(8), 2, 32, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, core.KindLiger)
	cfg := baseCfg()
	cfg.KV = doubleRelease{PagedManager: kv, seq: 3}
	_, err = Run(eng.Clock(), eng.Runtime(), cfg)
	if err == nil || !strings.Contains(err.Error(), "double release") {
		t.Fatalf("run with a double-released conversation returned %v, want the invariant violation", err)
	}
	if kv.Violations() != 1 {
		t.Fatalf("%d violations recorded, want 1", kv.Violations())
	}
}

// leakyRelease drops one sequence's release, so the allocator still
// holds it when the run ends.
type leakyRelease struct {
	*kvcache.PagedManager
	seq int
}

func (l leakyRelease) Release(id int) {
	if id != l.seq {
		l.PagedManager.Release(id)
	}
}

func TestRunLeakedSequenceFailsRun(t *testing.T) {
	kv, err := kvcache.NewPaged(hw.A100Node(), model.OPT30B().WithLayers(8), 2, 32, kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engineFor(t, core.KindLiger)
	cfg := baseCfg()
	cfg.KV = leakyRelease{PagedManager: kv, seq: 2}
	_, err = Run(eng.Clock(), eng.Runtime(), cfg)
	if err == nil || !strings.Contains(err.Error(), "kv cache still holds 1") {
		t.Fatalf("run that leaked a sequence returned %v, want the leak error", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Conversations: 1, BatchSize: 0, PromptLen: 1, GenTokens: 1},
		{Conversations: 1, BatchSize: 1, PromptLen: 0, GenTokens: 1},
		{Conversations: 1, BatchSize: 1, PromptLen: 1, GenTokens: 0},
		{Conversations: 1, BatchSize: 1, PromptLen: 1, GenTokens: 1, ArrivalGap: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
