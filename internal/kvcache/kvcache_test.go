package kvcache

import (
	"testing"
	"testing/quick"

	"liger/internal/hw"
	"liger/internal/model"
)

func TestBudgetSensible(t *testing.T) {
	m := paged(t, PagedConfig{})
	// A100 80 GB minus ~15 GB of weights: tens of GB of KV budget.
	if m.Budget() < 20e9 || m.Budget() > 70e9 {
		t.Fatalf("budget %d bytes implausible", m.Budget())
	}
	// OPT-30B: 2*2*48*7168 bytes per token / 4 devices ≈ 0.69 MB.
	want := model.OPT30B().KVCacheBytes(1) / 4
	if m.BytesPerToken() != want {
		t.Fatalf("bytes/token %d, want %d", m.BytesPerToken(), want)
	}
}

func TestNoRoomOnTightNode(t *testing.T) {
	// OPT-30B on the V100 node leaves almost nothing after weights:
	// KV-cache serving of long generations must be rejected or tiny.
	m, err := NewPaged(hw.V100Node(), model.OPT30B(), 32, 128, PagedConfig{})
	if err == nil && m.MaxResidentSequences(2048) > 64 {
		t.Fatalf("V100 node implausibly roomy: %d sequences", m.MaxResidentSequences(2048))
	}
	if _, err := NewPaged(hw.V100Node(), model.GLM130B(), 8, 128, PagedConfig{}); err == nil {
		t.Fatal("GLM-130B on V100 should have no budget at all")
	}
}

func TestAdmitExtendRelease(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	if err := m.Admit(1, 64); err != nil {
		t.Fatal(err)
	}
	if m.Tokens(1) != 64 {
		t.Fatalf("tokens %d", m.Tokens(1))
	}
	// 64 tokens fill exactly four blocks.
	used := m.UsedBytes()
	if used != 4*m.blockBytes || used != 64*m.BytesPerToken() {
		t.Fatalf("used %d", used)
	}
	// The 65th token opens a fifth block.
	if err := m.Extend(1); err != nil {
		t.Fatal(err)
	}
	if m.Tokens(1) != 65 || m.UsedBytes() != used+m.blockBytes {
		t.Fatal("extend accounting wrong")
	}
	m.Release(1)
	if m.UsedBytes() != 0 || m.Live() != 0 {
		t.Fatal("release accounting wrong")
	}
}

func TestAdmitErrors(t *testing.T) {
	m := paged(t, PagedConfig{})
	if err := m.Admit(1, 0); err == nil {
		t.Error("zero prompt accepted")
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 16); err == nil {
		t.Error("duplicate admit accepted")
	}
	if err := m.Extend(99); err == nil {
		t.Error("extend of unknown sequence accepted")
	}
	// A release of a never-admitted id is a double-release in disguise:
	// it must be recorded as an invariant violation, not ignored.
	m.Release(99)
	if m.Violations() != 1 || m.InvariantErr() == nil {
		t.Errorf("unknown-id release not recorded: %d violations, err %v", m.Violations(), m.InvariantErr())
	}
	m.Release(1)
	m.Release(1) // literal double release
	if m.Violations() != 2 {
		t.Errorf("double release not recorded: %d violations", m.Violations())
	}
	if m.FreeBlocks() != m.TotalBlocks() {
		t.Errorf("double release over-freed: %d of %d blocks free", m.FreeBlocks(), m.TotalBlocks())
	}
}

func TestCapacityEnforced(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	perSeq := 4096
	max := m.MaxResidentSequences(perSeq)
	if max <= 0 {
		t.Fatal("no capacity at all")
	}
	for i := 0; i < max; i++ {
		if err := m.Admit(i, perSeq); err != nil {
			t.Fatalf("admit %d of %d failed: %v", i, max, err)
		}
	}
	if err := m.Admit(max, perSeq); err == nil {
		t.Fatal("over-capacity admit accepted")
	}
	if m.CanAdmit(perSeq) {
		t.Fatal("CanAdmit contradicts Admit")
	}
	// Freeing one makes room again.
	m.Release(0)
	if err := m.Admit(max, perSeq); err != nil {
		t.Fatalf("admit after release failed: %v", err)
	}
}

// Property: any admit/extend/release sequence keeps used within
// [0, budget] and equal to the whole blocks covering the per-sequence
// token counts.
func TestPropertyAccountingConsistent(t *testing.T) {
	f := func(ops []uint8) bool {
		m, err := NewPaged(hw.A100Node(), model.OPT30B(), 8, 128, PagedConfig{})
		if err != nil {
			return false
		}
		next := 0
		live := map[int]bool{}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if m.Admit(next, 1+int(op)) == nil {
					live[next] = true
				}
				next++
			case 1:
				for id := range live {
					_ = m.Extend(id)
					break
				}
			case 2:
				for id := range live {
					m.Release(id)
					delete(live, id)
					break
				}
			}
			if m.UsedBytes() < 0 || m.UsedBytes() > m.Budget() {
				return false
			}
			var sum int64
			for id := range live {
				sum += int64(m.blocksFor(m.Tokens(id))) * m.blockBytes
			}
			if sum != m.UsedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
