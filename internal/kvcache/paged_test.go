package kvcache

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
)

func paged(t *testing.T, cfg PagedConfig) *PagedManager {
	t.Helper()
	m, err := NewPaged(hw.A100Node(), model.OPT30B(), 32, 128, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The 0.97 memory-safety factor must come from the one exported
// constant: the paged budget reproduces the placement-report
// arithmetic with parallel.MemSafety, rounded down to whole blocks.
func TestBudgetSharesMemSafetyConstant(t *testing.T) {
	if parallel.MemSafety != 0.97 {
		t.Fatalf("parallel.MemSafety = %v, want the paper's 0.97", parallel.MemSafety)
	}
	node, spec := hw.A100Node(), model.OPT30B()
	rep := parallel.PlanPlacement(node, spec, 32, 128, 0, 0)
	want := int64(parallel.MemSafety*float64(rep.DeviceBytes)) - rep.WeightBytesPerDevice - rep.WorkspaceBytes
	p := paged(t, PagedConfig{})
	if got := p.Budget(); got > want || want-got >= p.blockBytes {
		t.Fatalf("paged budget %d not %d rounded to whole blocks", got, want)
	}
}

func TestPagedBlockTablesGrowOnDemand(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	if err := m.Admit(1, 20); err != nil {
		t.Fatal(err)
	}
	// 20 tokens at 16 tokens/block: two blocks, the second half empty.
	if got := m.BlockTable(1); len(got) != 2 {
		t.Fatalf("block table %v, want 2 blocks for 20 tokens", got)
	}
	// Extends through the slack stay inside block two...
	for i := 20; i < 32; i++ {
		if err := m.Extend(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.BlockTable(1); len(got) != 2 {
		t.Fatalf("block table %v after filling block two", got)
	}
	// ...and the 33rd token allocates block three.
	if err := m.Extend(1); err != nil {
		t.Fatal(err)
	}
	if got := m.BlockTable(1); len(got) != 3 || m.Tokens(1) != 33 {
		t.Fatalf("block table %v, tokens %d after boundary extend", got, m.Tokens(1))
	}
	free := m.FreeBlocks()
	m.Release(1)
	if m.FreeBlocks() != free+3 || m.Live() != 0 {
		t.Fatal("release did not return the whole table")
	}
}

// The acceptance pin: paged admission holds strictly more concurrent
// sequences than a worst-case prompt+gen reservation of the same pool
// would, because a live sequence only owns blocks for tokens it has
// actually cached.
func TestPagedAdmitsMoreThanReservation(t *testing.T) {
	const prompt, gen = 256, 1792
	m := paged(t, PagedConfig{BlockTokens: 16})
	worstCase := m.MaxResidentSequences(prompt + gen)
	if worstCase <= 0 {
		t.Fatal("allocator has no capacity for one worst-case sequence")
	}
	admitted := 0
	for m.CanAdmit(prompt) {
		if err := m.Admit(admitted, prompt); err != nil {
			t.Fatal(err)
		}
		admitted++
	}
	if admitted <= worstCase {
		t.Fatalf("paged admitted %d sequences, worst-case reservation holds %d — paging must win strictly", admitted, worstCase)
	}
}

func TestPagedPreemptsNewestFirst(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	for id := 1; id <= 3; id++ {
		if err := m.Admit(id, 16*id); err != nil {
			t.Fatal(err)
		}
	}
	id, tokens, ok := m.Preempt()
	if !ok || id != 3 || tokens != 48 {
		t.Fatalf("preempt -> (%d, %d, %v), want newest sequence 3 with 48 tokens", id, tokens, ok)
	}
	if id, _, _ = m.Preempt(); id != 2 {
		t.Fatalf("second preempt -> %d, want 2", id)
	}
	if m.Live() != 1 || m.Preemptions() != 2 {
		t.Fatalf("live %d, preemptions %d", m.Live(), m.Preemptions())
	}
	m.Preempt()
	if _, _, ok := m.Preempt(); ok {
		t.Fatal("preempt with nothing live reported a victim")
	}
}

func TestPagedExtendOOMAndReuse(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	total := m.TotalBlocks()
	// Sequence 0 takes all but one block; sequence 1 takes the last.
	if err := m.Admit(0, (total-1)*16); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	if m.FreeBlocks() != 0 {
		t.Fatalf("%d free blocks after exhausting the pool", m.FreeBlocks())
	}
	if m.CanAdmit(1) {
		t.Fatal("CanAdmit with an empty pool")
	}
	// Sequence 1's block is full: the boundary extend needs a block and
	// must fail with the preemption sentinel, leaving state untouched.
	err := m.Extend(1)
	if !errors.Is(err, ErrNoFreeBlocks) {
		t.Fatalf("boundary extend under OOM: %v, want ErrNoFreeBlocks", err)
	}
	if m.Tokens(1) != 16 {
		t.Fatalf("failed extend mutated the sequence: %d tokens", m.Tokens(1))
	}
	// Preempting the newest sequence frees its block for the survivor.
	id, _, ok := m.Preempt()
	if !ok || id != 1 {
		t.Fatalf("preempt -> (%d, %v)", id, ok)
	}
	for i := 0; i < 16; i++ {
		if err := m.Extend(0); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreeBlocks() != 0 {
		t.Fatalf("%d free blocks after survivor reclaimed the freed block", m.FreeBlocks())
	}
}

func TestPagedWatermark(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16, Watermark: 0.5})
	if m.UnderPressure() {
		t.Fatal("empty allocator under pressure")
	}
	half := m.TotalBlocks() / 2
	if err := m.Admit(1, (half+2)*16); err != nil {
		t.Fatal(err)
	}
	if !m.UnderPressure() {
		t.Fatalf("%d of %d blocks free at watermark 0.5: want pressure", m.FreeBlocks(), m.TotalBlocks())
	}
	m.Release(1)
	if m.UnderPressure() {
		t.Fatal("pressure after releasing everything")
	}
}

func TestPagedDoubleReleaseRecorded(t *testing.T) {
	m := paged(t, PagedConfig{})
	if err := m.Admit(1, 16); err != nil {
		t.Fatal(err)
	}
	m.Release(1)
	m.Release(1)
	if m.Violations() != 1 || m.InvariantErr() == nil {
		t.Fatalf("double release not recorded: %d violations", m.Violations())
	}
}

// Property: any admit/extend/release/preempt interleaving keeps block
// accounting closed — every block is either free or in exactly one
// table, and table sizes cover exactly the cached tokens.
func TestPagedPropertyBlocksConserved(t *testing.T) {
	f := func(ops []uint8) bool {
		m, err := NewPaged(hw.A100Node(), model.OPT30B().WithLayers(8), 8, 128, PagedConfig{BlockTokens: 8})
		if err != nil {
			return false
		}
		next := 0
		live := map[int]bool{}
		for _, op := range ops {
			switch op % 4 {
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
			case 3:
				if id, _, ok := m.Preempt(); ok {
					delete(live, id)
				}
			}
			seen := map[int]bool{}
			held := 0
			for id := range live {
				table := m.BlockTable(id)
				if len(table) != (m.Tokens(id)+m.BlockTokens()-1)/m.BlockTokens() {
					return false
				}
				for _, b := range table {
					if b < 0 || b >= m.TotalBlocks() || seen[b] {
						return false
					}
					seen[b] = true
				}
				held += len(table)
			}
			if held+m.FreeBlocks() != m.TotalBlocks() {
				return false
			}
		}
		return m.Violations() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Released and preempted sequences hand their records and block tables
// to the next admission, so a warmed-up allocator allocates nothing per
// admit, extend, release or preempt.
func TestPagedSteadyStateAllocatesNothing(t *testing.T) {
	m := paged(t, PagedConfig{BlockTokens: 16})
	next := 0
	admit := func() int {
		id := next
		next++
		if err := m.Admit(id, 40); err != nil {
			t.Fatal(err)
		}
		for range 100 {
			if err := m.Extend(id); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	cycles := []struct {
		name string
		run  func()
	}{
		{"admit, extend, release", func() { m.Release(admit()) }},
		{"admit, extend, preempt", func() {
			old := admit()
			admit()
			if id, _, ok := m.Preempt(); !ok || id == old {
				t.Fatalf("preempted %d, want the newest", id)
			}
			m.Release(old)
		}},
	}
	for _, tc := range cycles {
		if a := testing.AllocsPerRun(100, tc.run); a != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, a)
		}
	}
	if m.Live() != 0 || m.FreeBlocks() != m.TotalBlocks() || m.Violations() != 0 {
		t.Fatalf("%d live, %d of %d blocks free, %d violations", m.Live(), m.FreeBlocks(), m.TotalBlocks(), m.Violations())
	}
}

// eagerBlocks is the reference free list: a stack built with every
// block id, lowest on top, that released blocks are pushed onto.
type eagerBlocks struct {
	stack  []int
	tables map[int][]int
}

func newEagerBlocks(total int) *eagerBlocks {
	e := &eagerBlocks{tables: map[int][]int{}}
	for i := total - 1; i >= 0; i-- {
		e.stack = append(e.stack, i)
	}
	return e
}

func (e *eagerBlocks) take(seq, n int) {
	for range n {
		e.tables[seq] = append(e.tables[seq], e.stack[len(e.stack)-1])
		e.stack = e.stack[:len(e.stack)-1]
	}
}

func (e *eagerBlocks) drop(seq int) {
	t := e.tables[seq]
	for i := len(t) - 1; i >= 0; i-- {
		e.stack = append(e.stack, t[i])
	}
	delete(e.tables, seq)
}

// The lazily built free list hands out exactly the blocks of the eager
// stack it replaces — released blocks first, newest release on top,
// then never-used ids in ascending order — so every block table of a
// mixed admit/extend/preempt/release sequence matches block for block.
func TestPagedLazyFreeListMatchesEagerStack(t *testing.T) {
	node, spec := smallPoolNode(t, 120)
	m, err := NewPaged(node, spec, 8, 128, PagedConfig{BlockTokens: 8})
	if err != nil {
		t.Fatal(err)
	}
	ref := newEagerBlocks(m.TotalBlocks())
	blocks := func(tokens int) int { return (tokens + 7) / 8 }
	rng := rand.New(rand.NewPCG(7, 19))
	next, preempts := 0, 0
	for op := range 3000 {
		var live []int
		for id := range ref.tables {
			live = append(live, id)
		}
		slices.Sort(live)
		switch r := rng.IntN(10); {
		case r < 3 || len(live) == 0:
			tokens := 1 + rng.IntN(160)
			if m.Admit(next, tokens) == nil {
				ref.take(next, blocks(tokens))
			}
			next++
		case r < 8:
			id := live[rng.IntN(len(live))]
			before := m.Tokens(id)
			if m.Extend(id) == nil && blocks(before+1) > blocks(before) {
				ref.take(id, 1)
			}
		case r < 9:
			id, _, ok := m.Preempt()
			if !ok {
				t.Fatalf("op %d: nothing to preempt with %d live", op, len(live))
			}
			ref.drop(id)
			preempts++
		default:
			id := live[rng.IntN(len(live))]
			m.Release(id)
			ref.drop(id)
		}
		if m.FreeBlocks() != len(ref.stack) || m.Live() != len(ref.tables) {
			t.Fatalf("op %d: %d free / %d live, eager stack %d / %d", op, m.FreeBlocks(), m.Live(), len(ref.stack), len(ref.tables))
		}
		for id, want := range ref.tables {
			if got := m.BlockTable(id); !slices.Equal(got, want) {
				t.Fatalf("op %d: sequence %d holds blocks %v, eager stack %v", op, id, got, want)
			}
		}
	}
	if preempts == 0 || m.Violations() != 0 {
		t.Fatalf("%d preemptions, %d violations", preempts, m.Violations())
	}
}
