package serve

import (
	"errors"
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
)

// fakeAlloc is a token-granular KV allocator with a hard capacity,
// newest-first preemption, and an optional pressure threshold — the
// minimal PreemptingAllocator for exercising the batcher's memory
// paths without a real paged manager.
type fakeAlloc struct {
	cap        int
	used       int
	seqs       map[int]int
	order      []int
	pressureAt int // free < pressureAt => under pressure (0 disables)
}

var errFakeOOM = errors.New("fake allocator full")

func newFakeAlloc(capacity, pressureAt int) *fakeAlloc {
	return &fakeAlloc{cap: capacity, pressureAt: pressureAt, seqs: map[int]int{}}
}

func (f *fakeAlloc) CanAdmit(tokens int) bool { return f.used+tokens <= f.cap }
func (f *fakeAlloc) Admit(id, tokens int) error {
	if !f.CanAdmit(tokens) {
		return errFakeOOM
	}
	f.seqs[id] = tokens
	f.used += tokens
	f.order = append(f.order, id)
	return nil
}
func (f *fakeAlloc) Extend(id int) error {
	if f.used+1 > f.cap {
		return errFakeOOM
	}
	f.seqs[id]++
	f.used++
	return nil
}
func (f *fakeAlloc) Release(id int) {
	f.used -= f.seqs[id]
	delete(f.seqs, id)
	for i, o := range f.order {
		if o == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
}
func (f *fakeAlloc) UnderPressure() bool { return f.pressureAt > 0 && f.cap-f.used < f.pressureAt }
func (f *fakeAlloc) Preempt() (int, int, bool) {
	if len(f.order) == 0 {
		return 0, 0, false
	}
	id := f.order[len(f.order)-1]
	tokens := f.seqs[id]
	f.Release(id)
	return id, tokens, true
}

// continuousHarness wires a ContinuousBatcher over the sequential
// fakeRuntime, recording every submitted workload and lifecycle event.
type continuousHarness struct {
	eng       *simclock.Engine
	cb        *ContinuousBatcher
	workloads []model.Workload
	firstTok  map[int]simclock.Time
	finished  map[int]simclock.Time
	preempted []int
}

// newContinuousHarness builds the harness over kv; a nil kv stands for
// an allocator that never runs out.
func newContinuousHarness(t *testing.T, kv KVAllocator, maxPool int) *continuousHarness {
	t.Helper()
	if kv == nil {
		kv = newFakeAlloc(1<<30, 0)
	}
	h := &continuousHarness{
		eng:      simclock.New(),
		firstTok: map[int]simclock.Time{},
		finished: map[int]simclock.Time{},
	}
	rt := &fakeRuntime{eng: h.eng, service: 10 * time.Millisecond}
	cb, err := NewContinuousBatcher(rt, kv, maxPool, ContinuousHooks{
		FirstToken: func(id int, now simclock.Time) { h.firstTok[id] = now },
		Finished:   func(id int, now simclock.Time) { h.finished[id] = now },
		Preempted:  func(id int, _ simclock.Time) { h.preempted = append(h.preempted, id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetOnDone(func(c runtimes.Completion) {
		h.workloads = append(h.workloads, c.Workload)
		cb.OnDone(c)
	})
	h.cb = cb
	return h
}

func TestContinuousPrefillThenDecodeIterations(t *testing.T) {
	h := newContinuousHarness(t, nil, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 4}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	// One prefill over the prompt, then one decode iteration per token.
	want := []model.Workload{
		{Batch: 1, SeqLen: 8, Phase: model.Context},
		{Batch: 1, CtxLen: 9, Phase: model.Decode},
		{Batch: 1, CtxLen: 10, Phase: model.Decode},
		{Batch: 1, CtxLen: 11, Phase: model.Decode},
		{Batch: 1, CtxLen: 12, Phase: model.Decode},
	}
	if len(h.workloads) != len(want) {
		t.Fatalf("submitted %d workloads, want %d: %v", len(h.workloads), len(want), h.workloads)
	}
	for i, w := range want {
		if h.workloads[i] != w {
			t.Fatalf("workload %d = %+v, want %+v", i, h.workloads[i], w)
		}
	}
	if h.cb.Iterations != 4 || h.cb.PrefillBatches != 1 {
		t.Fatalf("iterations %d, prefills %d", h.cb.Iterations, h.cb.PrefillBatches)
	}
	// TTFT at the first prefill completion, finish after the last decode.
	if h.firstTok[1] != simclock.Time(10*time.Millisecond) {
		t.Fatalf("first token at %v", h.firstTok[1])
	}
	if h.finished[1] != simclock.Time(50*time.Millisecond) {
		t.Fatalf("finished at %v", h.finished[1])
	}
	if !h.cb.Idle() {
		t.Fatal("batcher not idle after completion")
	}
}

// A sequence arriving mid-decode is prefilled between iterations and
// joins the live pool — the defining behaviour of iteration-level
// scheduling.
func TestContinuousLateArrivalJoinsPool(t *testing.T) {
	h := newContinuousHarness(t, nil, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 6}, now)
	})
	h.eng.After(25*time.Millisecond, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 2, Prompt: 4, Gen: 2}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	// The second prefill interleaves with sequence 1's decode, and pool
	// size 2 shows up in subsequent decode iterations.
	prefills, sawPool2 := 0, false
	for _, w := range h.workloads {
		if w.Phase == model.Context {
			prefills++
		} else if w.Batch == 2 {
			sawPool2 = true
		}
	}
	if prefills != 2 {
		t.Fatalf("%d prefill batches, want 2", prefills)
	}
	if !sawPool2 {
		t.Fatalf("no decode iteration over the merged pool: %v", h.workloads)
	}
	if len(h.finished) != 2 {
		t.Fatalf("finished %d of 2 sequences", len(h.finished))
	}
	if h.cb.MeanPool() <= 1 {
		t.Fatalf("mean pool %v, want > 1 after the merge", h.cb.MeanPool())
	}
}

func TestContinuousPoolCapDefersAdmission(t *testing.T) {
	h := newContinuousHarness(t, nil, 1)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 4, Gen: 3}, now)
		h.cb.Add(GenSeq{ID: 2, Prompt: 4, Gen: 3}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range h.workloads {
		if w.Batch != 1 {
			t.Fatalf("pool cap 1 violated: %+v", w)
		}
	}
	if len(h.finished) != 2 || !(h.finished[1] < h.finished[2]) {
		t.Fatalf("finish order wrong: %v", h.finished)
	}
}

func TestContinuousKVAdmissionGates(t *testing.T) {
	// Room for one 8-token prompt plus its 3 generated tokens only:
	// sequence 2 must wait for sequence 1's release.
	kv := newFakeAlloc(12, 0)
	h := newContinuousHarness(t, kv, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 3}, now)
		h.cb.Add(GenSeq{ID: 2, Prompt: 8, Gen: 3}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	if len(h.finished) != 2 {
		t.Fatalf("finished %d of 2", len(h.finished))
	}
	if kv.used != 0 {
		t.Fatalf("%d tokens leaked", kv.used)
	}
	// Never more than one live at a time.
	for _, w := range h.workloads {
		if w.Batch > 1 {
			t.Fatalf("admission gate violated: %+v", w)
		}
	}
}

// The tentpole behaviour: when Extend hits OOM mid-pool the batcher
// preempts the newest sequence instead of failing, the victim re-queues
// with its recompute obligation, and everything still completes.
func TestContinuousPreemptionRecoversAndCompletes(t *testing.T) {
	// Two 8-token prompts fit; the pool OOMs after 4 joint extends.
	kv := newFakeAlloc(20, 0)
	h := newContinuousHarness(t, kv, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 6}, now)
		h.cb.Add(GenSeq{ID: 2, Prompt: 8, Gen: 6}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	if h.cb.Preemptions == 0 || len(h.preempted) == 0 {
		t.Fatal("no preemption under engineered memory pressure")
	}
	if h.preempted[0] != 2 {
		t.Fatalf("victim %d, want the newest sequence 2", h.preempted[0])
	}
	if h.cb.RecomputedTokens == 0 {
		t.Fatal("preemption recorded no recompute obligation")
	}
	if len(h.finished) != 2 {
		t.Fatalf("finished %d of 2 after preemption", len(h.finished))
	}
	if kv.used != 0 {
		t.Fatalf("%d tokens leaked after preemption cycle", kv.used)
	}
	// The victim's resume prefill covers prompt + produced tokens.
	resumed := false
	for _, w := range h.workloads {
		if w.Phase == model.Context && w.SeqLen > 8 {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no recompute prefill longer than the original prompt")
	}
}

// Watermark pressure evicts between iterations, before Extend fails.
func TestContinuousWatermarkEvictsProactively(t *testing.T) {
	// Free space dips under the 6-token watermark once both prompts are
	// resident, long before extends exhaust the pool.
	kv := newFakeAlloc(20, 6)
	h := newContinuousHarness(t, kv, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 2}, now)
		h.cb.Add(GenSeq{ID: 2, Prompt: 8, Gen: 2}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	if h.cb.Preemptions == 0 {
		t.Fatal("watermark pressure did not trigger eviction")
	}
	if len(h.finished) != 2 {
		t.Fatalf("finished %d of 2", len(h.finished))
	}
}

// With a single live sequence and no headroom the batcher must fail
// loudly rather than preempt the pool to empty.
func TestContinuousOOMWithoutHeadroomFails(t *testing.T) {
	kv := newFakeAlloc(9, 0) // one 8-token prompt + one extend, then OOM
	h := newContinuousHarness(t, kv, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 8}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); !errors.Is(err, errFakeOOM) {
		t.Fatalf("err = %v, want wrapped allocator OOM", err)
	}
}

// A Prefilled sequence (disaggregated decode: KV transferred in) joins
// the pool without a Context submission; after preemption its resume
// pays a real recompute prefill.
func TestContinuousPrefilledSkipsContextPhase(t *testing.T) {
	h := newContinuousHarness(t, nil, 4)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 3, Prefilled: true}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range h.workloads {
		if w.Phase == model.Context {
			t.Fatalf("prefilled sequence ran a local prefill: %v", h.workloads)
		}
	}
	if h.cb.Iterations != 3 || len(h.finished) != 1 {
		t.Fatalf("iterations %d, finished %d", h.cb.Iterations, len(h.finished))
	}
	// TTFT stamps at admission, not after a prefill round-trip.
	if h.firstTok[1] != 0 {
		t.Fatalf("first token at %v, want admission instant", h.firstTok[1])
	}

	// Under pressure the transferred cache is evicted like any other;
	// the resume must run a Context recompute.
	kv := newFakeAlloc(20, 0)
	h2 := newContinuousHarness(t, kv, 4)
	h2.eng.After(0, func(now simclock.Time) {
		h2.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 6, Prefilled: true}, now)
		h2.cb.Add(GenSeq{ID: 2, Prompt: 8, Gen: 6, Prefilled: true}, now)
	})
	h2.eng.Run()
	if err := h2.cb.Err(); err != nil {
		t.Fatal(err)
	}
	if h2.cb.Preemptions == 0 || len(h2.finished) != 2 {
		t.Fatalf("preemptions %d, finished %d", h2.cb.Preemptions, len(h2.finished))
	}
	recompute := false
	for _, w := range h2.workloads {
		if w.Phase == model.Context {
			recompute = true
		}
	}
	if !recompute {
		t.Fatal("preempted prefilled sequence resumed without recompute prefill")
	}
}

func TestContinuousRejectsBadSequences(t *testing.T) {
	h := newContinuousHarness(t, nil, 2)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 0, Gen: 4}, now)
	})
	h.eng.Run()
	if h.cb.Err() == nil {
		t.Fatal("zero prompt accepted")
	}
	h2 := newContinuousHarness(t, nil, 2)
	h2.eng.After(0, func(now simclock.Time) {
		h2.cb.Add(GenSeq{ID: 1, Prompt: 4, Gen: 1}, now)
		h2.cb.Add(GenSeq{ID: 1, Prompt: 4, Gen: 1}, now)
	})
	h2.eng.Run()
	if h2.cb.Err() == nil {
		t.Fatal("duplicate id accepted")
	}
	kv := newFakeAlloc(64, 0)
	if _, err := NewContinuousBatcher(nil, kv, 2, ContinuousHooks{}); err == nil {
		t.Fatal("nil runtime accepted")
	}
	rt := &fakeRuntime{eng: simclock.New(), service: time.Millisecond}
	if _, err := NewContinuousBatcher(rt, nil, 2, ContinuousHooks{}); err == nil {
		t.Fatal("nil allocator accepted")
	}
	if _, err := NewContinuousBatcher(rt, kv, 0, ContinuousHooks{}); err == nil {
		t.Fatal("zero pool accepted")
	}
}
