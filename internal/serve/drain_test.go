package serve

import (
	"math"
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
)

// elasticStub is fakeRuntime plus a scriptable reconfiguration window,
// implementing runtimes.Elastic so RunPolicy's recovery-aware paths can
// be driven without a full gpusim failover.
type elasticStub struct {
	fakeRuntime
	reconfiguring bool
	subs          []func(simclock.Time)
	failovers     int
	downtime      time.Duration
	// failNext marks the next n submissions to complete with Failed set.
	failNext int
}

func (e *elasticStub) Reconfiguring() bool                       { return e.reconfiguring }
func (e *elasticStub) OnReconfigured(fn func(now simclock.Time)) { e.subs = append(e.subs, fn) }
func (e *elasticStub) FailoverStats() (int, time.Duration)       { return e.failovers, e.downtime }

func (e *elasticStub) Submit(w model.Workload) error {
	c := runtimes.Completion{ID: e.nextID, Workload: w, Submitted: e.eng.Now()}
	if e.failNext > 0 {
		c.Failed = true
		e.failNext--
	}
	e.nextID++
	e.queue = append(e.queue, c)
	e.pump()
	return nil
}

// window arms a reconfiguration span [from, to) on the engine. Arm it
// BEFORE RunPolicy so that an arrival at exactly `from` observes the
// reconfiguring state (same-instant events fire in arming order).
func (e *elasticStub) window(eng *simclock.Engine, from, to time.Duration) {
	eng.At(from, func(simclock.Time) {
		e.reconfiguring = true
		e.failovers++
	})
	eng.At(to, func(now simclock.Time) {
		e.reconfiguring = false
		e.downtime += to - from
		for _, fn := range e.subs {
			fn(now)
		}
	})
}

func ctxArrivals(ats ...time.Duration) []Arrival {
	arr := make([]Arrival, len(ats))
	for i, at := range ats {
		arr[i] = Arrival{At: at, Workload: model.Workload{Batch: 1, SeqLen: 16, Phase: model.Context}}
	}
	return arr
}

// TestArrivalAtReconfigurationInstantIsDeferredNotLost is the drain
// boundary case: an arrival landing at the exact sim instant the
// runtime enters reconfiguration is parked and served at resume — it
// must not be dropped, double-submitted, or submitted into the dying
// world.
func TestArrivalAtReconfigurationInstantIsDeferredNotLost(t *testing.T) {
	eng := simclock.New()
	rt := &elasticStub{fakeRuntime: fakeRuntime{eng: eng, service: 2 * time.Millisecond}}
	rt.window(eng, 20*time.Millisecond, 50*time.Millisecond)
	arr := ctxArrivals(10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond)
	res, err := RunPolicy(eng, rt, arr, Policy{MaxRetries: 1, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 || res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("completed %d failed %d shed %d, want 3/0/0", res.Completed, res.Failed, res.Shed)
	}
	// The 20ms and 30ms arrivals both land inside the window.
	if res.Deferred != 2 {
		t.Fatalf("deferred %d, want 2 (the arrival at the failure instant must defer)", res.Deferred)
	}
	// Deferred arrivals submit at the 50ms resume: the 20ms arrival
	// waits 30ms then serves 2ms; the 30ms one queues behind it.
	if want := 32 * time.Millisecond; res.Latencies[1] != want {
		t.Fatalf("deferred arrival latency %v, want %v", res.Latencies[1], want)
	}
	if res.Failovers != 1 || res.RecoveryTime != 30*time.Millisecond {
		t.Fatalf("failovers %d recovery %v, want 1 / 30ms", res.Failovers, res.RecoveryTime)
	}
}

// TestRetrySuppressedDuringReconfiguration: a batch that fails while
// the runtime is reconfiguring must not burn its retry against the
// dying world — the retry parks and pays its backoff from the resume
// instant.
func TestRetrySuppressedDuringReconfiguration(t *testing.T) {
	eng := simclock.New()
	rt := &elasticStub{fakeRuntime: fakeRuntime{eng: eng, service: 5 * time.Millisecond}, failNext: 1}
	rt.window(eng, 3*time.Millisecond, 30*time.Millisecond)
	arr := ctxArrivals(0)
	pol := Policy{MaxRetries: 1, Backoff: 2 * time.Millisecond}
	res, err := RunPolicy(eng, rt, arr, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Failed != 0 || res.Retries != 1 {
		t.Fatalf("completed %d failed %d retries %d, want 1/0/1", res.Completed, res.Failed, res.Retries)
	}
	// Failure lands at 5ms (inside the window) → parked. Resume at 30ms
	// pays the 2ms backoff → resubmit at 32ms → success at 37ms.
	if want := 37 * time.Millisecond; res.Latencies[0] != want {
		t.Fatalf("latency %v, want %v (retry must wait out the reconfiguration)", res.Latencies[0], want)
	}
}

// TestRetryDueDuringReconfigurationWaitsForResume: a retry whose
// backoff ends while the runtime reconfigures is parked, not submitted
// into the reconfiguring runtime, and its wait shows in Deferral.
func TestRetryDueDuringReconfigurationWaitsForResume(t *testing.T) {
	eng := simclock.New()
	rt := &elasticStub{fakeRuntime: fakeRuntime{eng: eng, service: 5 * time.Millisecond}, failNext: 1}
	rt.window(eng, 6*time.Millisecond, 30*time.Millisecond)
	pol := Policy{MaxRetries: 1, Backoff: 2 * time.Millisecond}
	res, err := RunPolicy(eng, rt, ctxArrivals(0), pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Retries != 1 {
		t.Fatalf("completed %d retries %d, want 1/1", res.Completed, res.Retries)
	}
	// Failure at 5ms, before the window → the retry comes due at 7ms,
	// inside it → parked until the 30ms resume → success at 35ms.
	if want := 35 * time.Millisecond; res.Latencies[0] != want {
		t.Fatalf("latency %v, want %v (the retry must wait for the resume)", res.Latencies[0], want)
	}
	if want := 23 * time.Millisecond; res.PerRequest[0].Deferral != want {
		t.Fatalf("deferral %v, want %v", res.PerRequest[0].Deferral, want)
	}
}

// TestQueueLimitSheds: arrivals past the admission bound are dropped,
// counted in Shed, and never reach the runtime.
func TestQueueLimitSheds(t *testing.T) {
	eng := simclock.New()
	rt := &elasticStub{fakeRuntime: fakeRuntime{eng: eng, service: 100 * time.Millisecond}}
	arr := ctxArrivals(0, time.Millisecond, 2*time.Millisecond, 3*time.Millisecond, 4*time.Millisecond)
	res, err := RunPolicy(eng, rt, arr, Policy{QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Shed != 3 {
		t.Fatalf("completed %d shed %d, want 2/3", res.Completed, res.Shed)
	}
	if rt.nextID != 2 {
		t.Fatalf("runtime saw %d submissions — shed arrivals must never submit", rt.nextID)
	}
}

// TestDrainAccountingIdentity: with shedding, deferral, parked retries,
// and terminal failures all active at once, every arrival resolves into
// exactly one of Completed/Failed/Shed (RunPolicy itself errors if the
// identity breaks — this exercises it under the full mix).
func TestDrainAccountingIdentity(t *testing.T) {
	eng := simclock.New()
	rt := &elasticStub{fakeRuntime: fakeRuntime{eng: eng, service: 4 * time.Millisecond}, failNext: 3}
	rt.window(eng, 6*time.Millisecond, 40*time.Millisecond)
	var ats []time.Duration
	for i := 0; i < 12; i++ {
		ats = append(ats, time.Duration(i)*3*time.Millisecond)
	}
	arr := ctxArrivals(ats...)
	pol := Policy{MaxRetries: 1, Backoff: time.Millisecond, QueueLimit: 4}
	res, err := RunPolicy(eng, rt, arr, pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Completed + res.Failed + res.Shed; got != len(arr) {
		t.Fatalf("%d of %d arrivals accounted (%d ok, %d failed, %d shed)",
			got, len(arr), res.Completed, res.Failed, res.Shed)
	}
	if res.Shed == 0 || res.Deferred == 0 {
		t.Fatalf("mix not exercised: shed %d deferred %d", res.Shed, res.Deferred)
	}
}

// TestBackoffForSaturatesInsteadOfOverflowing is the regression test
// for the former unbounded doubling, which wrapped negative around
// attempt 63 and scheduled retries in the past.
func TestBackoffForSaturatesInsteadOfOverflowing(t *testing.T) {
	p := Policy{Backoff: time.Second}
	prev := time.Duration(0)
	for attempt := 1; attempt <= 200; attempt++ {
		d := p.backoffFor(attempt)
		if d <= 0 {
			t.Fatalf("attempt %d: backoff %v overflowed", attempt, d)
		}
		if d < prev {
			t.Fatalf("attempt %d: backoff %v below previous %v", attempt, d, prev)
		}
		prev = d
	}
	if got := p.backoffFor(100); got != time.Duration(math.MaxInt64) {
		t.Fatalf("uncapped backoff at attempt 100 = %v, want saturation at MaxInt64", got)
	}
	capped := Policy{Backoff: time.Second, BackoffCap: 8 * time.Second}
	if got := capped.backoffFor(90); got != 8*time.Second {
		t.Fatalf("capped backoff at attempt 90 = %v, want the 8s cap", got)
	}
}

// TestValidateBackoffCapBoundary covers both sides of the cap/backoff
// relation: a cap below the first delay is unsatisfiable and rejected;
// a cap equal to it is the degenerate constant backoff and accepted.
func TestValidateBackoffCapBoundary(t *testing.T) {
	bad := Policy{MaxRetries: 1, Backoff: 2 * time.Second, BackoffCap: time.Second}
	if bad.Validate() == nil {
		t.Fatal("cap below first delay accepted")
	}
	ok := Policy{MaxRetries: 1, Backoff: 2 * time.Second, BackoffCap: 2 * time.Second}
	if err := ok.Validate(); err != nil {
		t.Fatalf("cap equal to first delay rejected: %v", err)
	}
	if (Policy{QueueLimit: -1}).Validate() == nil {
		t.Fatal("negative queue limit accepted")
	}
}
