package serve

import (
	"math/rand"
	"testing"

	"liger/internal/model"
	"liger/internal/runtimes"
)

// The wait queue admits in exactly the order the batcher's slice queue
// did: arrivals appended at the back, preemption victims prepended
// (append([]*genState{s}, q...)), admission from the front. The ops are
// a arrive, p preempt (re-queue the oldest admitted sequence at the
// front) and d admit; the ring wraps and grows along the way.
func TestWaitQueueMatchesPrependOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 400)
	for i := range long {
		long[i] = "aapdd"[rng.Intn(5)]
	}
	for _, ops := range []string{
		"aaaddd",
		"aaadpd",
		"adpadpdd",
		"aaaaaaaaadddddddddpppppppppaaadddddddddddd",
		"aaaaaaadddddddaaaaaaaapddpdpdpddddddddd",
		string(long),
	} {
		var q seqQueue
		var ref, admitted []*genState
		next := 0
		for i, op := range ops {
			switch op {
			case 'a':
				s := &genState{GenSeq: GenSeq{ID: next}}
				next++
				q.pushBack(s)
				ref = append(ref, s)
			case 'p':
				if len(admitted) == 0 {
					continue
				}
				s := admitted[0]
				admitted = admitted[1:]
				q.pushFront(s)
				ref = append([]*genState{s}, ref...)
			case 'd':
				if len(ref) == 0 {
					continue
				}
				if q.front() != ref[0] {
					t.Fatalf("%q op %d: front is sequence %d, want %d", ops, i, q.front().ID, ref[0].ID)
				}
				admitted = append(admitted, q.popFront())
				ref = ref[1:]
			}
			if q.len() != len(ref) {
				t.Fatalf("%q op %d: %d queued, want %d", ops, i, q.len(), len(ref))
			}
		}
		for len(ref) > 0 {
			if s := q.popFront(); s != ref[0] {
				t.Fatalf("%q drain: sequence %d, want %d", ops, s.ID, ref[0].ID)
			}
			ref = ref[1:]
		}
	}
}

// stubRuntime records submissions; the test completes them by hand.
type stubRuntime struct{ last model.Workload }

func (r *stubRuntime) Name() string                        { return "stub" }
func (r *stubRuntime) SetOnDone(func(runtimes.Completion)) {}
func (r *stubRuntime) Submit(w model.Workload) error       { r.last = w; return nil }

// stubKV is an allocator that never runs out: it preempts its newest
// sequence whenever pressure is armed, and allocates nothing once its
// live list has grown.
type stubKV struct {
	live     []int
	pressure int
}

func (k *stubKV) CanAdmit(int) bool     { return true }
func (k *stubKV) Admit(id, _ int) error { k.live = append(k.live, id); return nil }
func (k *stubKV) Extend(int) error      { return nil }
func (k *stubKV) Release(id int)        { k.remove(id) }
func (k *stubKV) UnderPressure() bool   { return k.pressure > 0 }
func (k *stubKV) Preempt() (id, tokens int, ok bool) {
	id = k.live[len(k.live)-1]
	k.live = k.live[:len(k.live)-1]
	k.pressure--
	return id, 0, true
}

func (k *stubKV) remove(id int) {
	for i, l := range k.live {
		if l == id {
			k.live = append(k.live[:i], k.live[i+1:]...)
			return
		}
	}
}

// A warmed-up batcher allocates nothing per decode iteration, nor per
// preemption and the re-admission and recompute prefill that follow.
func TestContinuousSteadyStateAllocatesNothing(t *testing.T) {
	rt := &stubRuntime{}
	kv := &stubKV{}
	cb, err := NewContinuousBatcher(rt, kv, 8, ContinuousHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for id := range 4 {
		cb.Add(GenSeq{ID: id, Prompt: 16, Gen: 1 << 30}, 0)
	}
	// Sequence 0 prefills alone, the other three together.
	cb.OnDone(runtimes.Completion{})
	cb.OnDone(runtimes.Completion{})
	complete := func(phase model.Phase) {
		if rt.last.Phase != phase {
			t.Fatalf("in flight: %+v, want phase %v", rt.last, phase)
		}
		cb.OnDone(runtimes.Completion{})
	}
	decode := func() { complete(model.Decode) }
	// Pressure evicts the newest sequence before the next decode; the
	// decode after it re-admits the victim, whose recompute prefill
	// completes back into a full pool.
	preempt := func() {
		kv.pressure = 1
		complete(model.Decode)
		complete(model.Decode)
		complete(model.Context)
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{{"decode iteration", decode}, {"preempt and re-admit", preempt}} {
		if a := testing.AllocsPerRun(100, tc.run); a != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, a)
		}
	}
	if cb.Preemptions < 100 || len(cb.pool) != 4 || cb.Err() != nil {
		t.Fatalf("%d preemptions, pool of %d, err %v", cb.Preemptions, len(cb.pool), cb.Err())
	}
}
