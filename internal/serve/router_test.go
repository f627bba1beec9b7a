package serve

import (
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
)

// stubFleet scripts a fleet on one plain engine: every dispatch
// completes after latency + service + latency unless the test marked
// the replica dead (lost bounce), busy, or the request failing.
type stubFleet struct {
	eng      *simclock.Engine
	replicas int
	latency  time.Duration
	service  time.Duration
	hooks    RouterHooks

	dead      map[int]bool          // replica -> lost-bounce deliveries
	busy      map[int]bool          // replica -> busy-bounce deliveries
	failLeft  map[int]int           // request -> remaining scripted failures
	blackhole map[int]bool          // replica -> swallow deliveries silently
	slow      map[int]time.Duration // replica -> extra service time

	perReplica map[int]int // dispatch count per replica
	dispatches int
}

func newStubFleet(replicas int) *stubFleet {
	return &stubFleet{
		eng:        simclock.New(),
		replicas:   replicas,
		latency:    time.Millisecond,
		service:    10 * time.Millisecond,
		dead:       map[int]bool{},
		busy:       map[int]bool{},
		failLeft:   map[int]int{},
		blackhole:  map[int]bool{},
		slow:       map[int]time.Duration{},
		perReplica: map[int]int{},
	}
}

func (s *stubFleet) RuntimeName() string              { return "stub" }
func (s *stubFleet) Replicas() int                    { return s.replicas }
func (s *stubFleet) Frontend() *simclock.Engine       { return s.eng }
func (s *stubFleet) SetRouter(h RouterHooks)          { s.hooks = h }
func (s *stubFleet) Run() error                       { s.eng.Run(); return nil }
func (s *stubFleet) FleetStats() (int, time.Duration) { return 0, 0 }

func (s *stubFleet) Dispatch(rep, req int, w model.Workload) {
	s.dispatches++
	s.perReplica[rep]++
	s.eng.After(simclock.Time(s.latency), func(at simclock.Time) {
		switch {
		case s.blackhole[rep]:
			return
		case s.dead[rep]:
			s.eng.After(simclock.Time(s.latency), func(now simclock.Time) {
				s.hooks.Done(rep, req, DispatchLost, now)
			})
		case s.busy[rep]:
			s.eng.After(simclock.Time(s.latency), func(now simclock.Time) {
				s.hooks.Done(rep, req, DispatchBusy, now)
			})
		default:
			status := DispatchOK
			if s.failLeft[req] > 0 {
				s.failLeft[req]--
				status = DispatchFailed
			}
			s.eng.After(simclock.Time(s.service+s.slow[rep]+s.latency), func(now simclock.Time) {
				s.hooks.Done(rep, req, status, now)
			})
		}
	})
}

func stubArrivals(n int, gap time.Duration) []Arrival {
	arr := make([]Arrival, n)
	for i := range arr {
		arr[i] = Arrival{At: simclock.Time(i) * simclock.Time(gap),
			Workload: model.Workload{Batch: 2, SeqLen: 32}}
	}
	return arr
}

func stubPolicy() Policy {
	return Policy{MaxRetries: 2, Backoff: time.Millisecond, BackoffCap: 8 * time.Millisecond}
}

func TestRunFleetCompletesAndBalances(t *testing.T) {
	f := newStubFleet(3)
	res, err := RunFleet(f, stubArrivals(30, time.Millisecond), stubPolicy(), RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 || res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("%d ok / %d failed / %d shed", res.Completed, res.Failed, res.Shed)
	}
	for rep := 0; rep < 3; rep++ {
		if f.perReplica[rep] == 0 {
			t.Fatalf("replica %d never dispatched to", rep)
		}
	}
	// Latency includes the two network legs plus service.
	want := 2*f.latency + f.service
	if res.P50 < want {
		t.Fatalf("p50 %v below the modeled floor %v", res.P50, want)
	}
}

func TestRunFleetShedsPastQueueLimit(t *testing.T) {
	f := newStubFleet(1)
	pol := stubPolicy()
	pol.QueueLimit = 2
	// All arrivals land at once; only QueueLimit are admitted before any
	// completion frees a slot.
	res, err := RunFleet(f, stubArrivals(10, 0), pol, RouterPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 8 || res.Completed != 2 {
		t.Fatalf("shed %d completed %d, want 8/2", res.Shed, res.Completed)
	}
}

func TestRunFleetHedgesSlowReplica(t *testing.T) {
	f := newStubFleet(2)
	// Replica 0 swallows every request; hedging rescues them via 1.
	f.blackhole[0] = true
	res, err := RunFleet(f, stubArrivals(6, 20*time.Millisecond), stubPolicy(),
		RouterPolicy{Hedge: 5 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatalf("completed %d/6", res.Completed)
	}
	if res.Hedges == 0 {
		t.Fatal("no hedges fired against a black-holed replica")
	}
}

func TestRunFleetLostBounceRedispatchesOnce(t *testing.T) {
	f := newStubFleet(2)
	f.dead[0] = true
	res, err := RunFleet(f, stubArrivals(8, 5*time.Millisecond), stubPolicy(), RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d/8", res.Completed)
	}
	// Every request that hit the dead replica was re-dispatched exactly
	// once and the totals agree with the per-request view.
	sum := 0
	for _, pr := range res.PerRequest {
		if pr.Retries > 1 {
			t.Fatalf("req %d re-dispatched %d times", pr.Req, pr.Retries)
		}
		sum += pr.Retries
	}
	if sum != res.Retries || res.Retries == 0 {
		t.Fatalf("retries %d, per-request sum %d", res.Retries, sum)
	}
	// Lost requests still measure latency from the original arrival: the
	// bounce round trip is inside the number.
	for _, pr := range res.PerRequest {
		if pr.Retries == 1 {
			lat := pr.Done - pr.Arrival
			floor := 4*f.latency + f.service // bounce trip + redo trip
			if lat < floor {
				t.Fatalf("req %d latency %v excludes the bounce (floor %v)", pr.Req, lat, floor)
			}
		}
	}
}

func TestRunFleetBusyBouncePlacesElsewhere(t *testing.T) {
	f := newStubFleet(2)
	f.busy[0] = true
	res, err := RunFleet(f, stubArrivals(8, 5*time.Millisecond), stubPolicy(), RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 {
		t.Fatalf("completed %d/8", res.Completed)
	}
	// A busy bounce is not a retry and not a failure.
	if res.Retries != 0 || res.Failed != 0 {
		t.Fatalf("busy bounce counted as retries=%d failed=%d", res.Retries, res.Failed)
	}
}

func TestRunFleetEvictionRedispatchesOutstanding(t *testing.T) {
	f := newStubFleet(2)
	f.blackhole[0] = true
	// Evict replica 0 mid-run; its black-holed requests must come back.
	f.eng.At(simclock.Time(15*time.Millisecond), func(now simclock.Time) {
		f.hooks.Evicted(0, now)
	})
	res, err := RunFleet(f, stubArrivals(10, time.Millisecond), stubPolicy(), RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed %d/10 after eviction", res.Completed)
	}
	if res.Retries == 0 {
		t.Fatal("eviction re-dispatched nothing")
	}
	for _, pr := range res.PerRequest {
		if pr.Retries > 1 {
			t.Fatalf("req %d re-dispatched %d times", pr.Req, pr.Retries)
		}
	}
}

func TestRunFleetPolicyRetriesAndExhaustion(t *testing.T) {
	f := newStubFleet(1)
	f.failLeft[0] = 1 // fails once, then succeeds
	f.failLeft[1] = 5 // exhausts the 2-retry budget
	res, err := RunFleet(f, stubArrivals(3, 30*time.Millisecond), stubPolicy(), RouterPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 1 {
		t.Fatalf("%d ok / %d failed, want 2/1", res.Completed, res.Failed)
	}
	if res.PerRequest[0].Retries != 1 || !res.PerRequest[1].Failed {
		t.Fatalf("per-request accounting wrong: %+v", res.PerRequest[:2])
	}
}

// TestRunFleetRetryWaitsForUp: a request that fails while no replica
// is healthy parks with its retry pending and pays its backoff from the
// next Up, not from the failure.
func TestRunFleetRetryWaitsForUp(t *testing.T) {
	f := newStubFleet(1)
	f.failLeft[0] = 1
	// Dispatched at 0, delivered at 1ms, failure notice at 12ms: the
	// replica is already down by then and comes back at 30ms.
	f.eng.At(simclock.Time(5*time.Millisecond), func(now simclock.Time) { f.hooks.Down(0, now) })
	f.eng.At(simclock.Time(30*time.Millisecond), func(now simclock.Time) { f.hooks.Up(0, now) })
	pol := Policy{MaxRetries: 1, Backoff: 4 * time.Millisecond}
	res, err := RunFleet(f, stubArrivals(1, 0), pol, RouterPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Retries != 1 || res.Deferred != 0 {
		t.Fatalf("%d ok / %d retries / %d deferred, want 1/1/0", res.Completed, res.Retries, res.Deferred)
	}
	// Up at 30ms, backoff to 34ms, then 1ms + 10ms + 1ms back.
	if want := 46 * time.Millisecond; res.Latencies[0] != want {
		t.Fatalf("latency %v, want %v (the backoff must start at the Up)", res.Latencies[0], want)
	}
	if want := 18 * time.Millisecond; res.PerRequest[0].Deferral != want {
		t.Fatalf("deferral %v, want %v (parked from the 12ms failure to the 30ms Up)", res.PerRequest[0].Deferral, want)
	}
}

func TestRunFleetFailsParkedBacklogAtDrain(t *testing.T) {
	f := newStubFleet(1)
	// Evict the only replica before anything arrives: every request
	// parks forever and must resolve as failed, keeping the invariant.
	f.eng.At(simclock.Time(time.Microsecond), func(now simclock.Time) {
		f.hooks.Evicted(0, now)
	})
	res, err := RunFleet(f, stubArrivals(5, time.Millisecond), stubPolicy(), RouterPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 5 || res.Completed != 0 {
		t.Fatalf("%d failed / %d ok, want 5/0", res.Failed, res.Completed)
	}
}

// TestRunFleetLateHedgeLoserDropped pins exactly-once completion under
// hedging: when both copies of a hedged request eventually complete,
// the first resolves the request and the loser's late notice must be
// dropped without touching any counter — no double Completed, no
// phantom latency sample.
func TestRunFleetLateHedgeLoserDropped(t *testing.T) {
	f := newStubFleet(2)
	// Both replicas complete everything, one far slower than the hedge
	// delay: every request hedges, both copies finish, one is late.
	f.slow[0] = 40 * time.Millisecond
	res, err := RunFleet(f, stubArrivals(6, 30*time.Millisecond), stubPolicy(),
		RouterPolicy{Hedge: 5 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 || res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("%d ok / %d failed / %d shed, want 6/0/0", res.Completed, res.Failed, res.Shed)
	}
	if res.Hedges == 0 {
		t.Fatal("no hedges fired against the slow replica")
	}
	// One latency sample per completion: a counted hedge loser would
	// add a second sample (and RunFleet's internal accounting invariant
	// would already have errored on a double resolve).
	if len(res.Latencies) != res.Completed {
		t.Fatalf("%d latency samples for %d completions", len(res.Latencies), res.Completed)
	}
	// The winner defines the latency: every sample must beat the slow
	// replica's service floor.
	slowFloor := 2*f.latency + f.service + f.slow[0]
	for i, lat := range res.Latencies {
		if lat >= slowFloor {
			t.Fatalf("latency[%d] = %v: the slow copy's completion won over the hedge", i, lat)
		}
	}
}

// TestRunFleetEvictionSparesLiveHedge pins the hedge/eviction
// interaction: when a replica dies while a request's hedge copy is
// still live on a healthy replica, the router must NOT re-dispatch —
// the live copy carries the request, so no retry is recorded and the
// request completes exactly once.
func TestRunFleetEvictionSparesLiveHedge(t *testing.T) {
	f := newStubFleet(2)
	// Replica 0 swallows deliveries, so every request it receives —
	// primary or hedge copy — stays outstanding there until eviction;
	// the copy on replica 1 is the one that completes.
	f.blackhole[0] = true
	f.eng.At(simclock.Time(8*time.Millisecond), func(now simclock.Time) {
		f.hooks.Evicted(0, now)
	})
	res, err := RunFleet(f, stubArrivals(2, time.Millisecond), stubPolicy(),
		RouterPolicy{Hedge: 3 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 0 {
		t.Fatalf("%d ok / %d failed, want 2/0", res.Completed, res.Failed)
	}
	if res.Hedges == 0 {
		t.Fatal("no hedges fired before the eviction")
	}
	// The eviction found every black-holed request still hedged on the
	// healthy replica: nothing to re-dispatch, nothing to retry.
	if res.Retries != 0 {
		t.Fatalf("eviction re-dispatched %d requests whose hedge copies were live", res.Retries)
	}
	for _, pr := range res.PerRequest {
		if pr.Retries != 0 {
			t.Fatalf("req %d recorded %d retries", pr.Req, pr.Retries)
		}
	}
}

// TestRunFleetHedgeThenPolicyRetry pins the hedge/retry interaction:
// when both copies of a hedged request fail, the first failure must
// wait for the surviving copy (no premature retry), and only the
// second failure spends policy retry budget — one retry, then success.
func TestRunFleetHedgeThenPolicyRetry(t *testing.T) {
	f := newStubFleet(2)
	// The request fails exactly twice: the primary and the hedge copy.
	// The post-backoff third attempt succeeds.
	f.failLeft[0] = 2
	res, err := RunFleet(f, stubArrivals(1, 0), stubPolicy(),
		RouterPolicy{Hedge: 5 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("%d ok / %d failed, want 1/0", res.Completed, res.Failed)
	}
	if res.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", res.Hedges)
	}
	// Both copies failing costs ONE policy retry, not two: the first
	// DispatchFailed deferred to the live hedge copy.
	if res.Retries != 1 || res.PerRequest[0].Retries != 1 {
		t.Fatalf("retries = %d (per-request %d), want 1", res.Retries, res.PerRequest[0].Retries)
	}
}

func TestRunFleetRejectsBadInput(t *testing.T) {
	f := newStubFleet(1)
	if _, err := RunFleet(f, nil, stubPolicy(), RouterPolicy{}); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := RunFleet(f, stubArrivals(1, 0), stubPolicy(), RouterPolicy{Hedge: -time.Second}); err == nil {
		t.Error("negative hedge accepted")
	}
	if _, err := RunFleet(newStubFleet(0), stubArrivals(1, 0), stubPolicy(), RouterPolicy{}); err == nil {
		t.Error("zero-replica fleet accepted")
	}
}
