package cluster

import (
	"encoding/json"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/parallel"
	"liger/internal/serve"
)

// testCluster is a small fleet on tiny hardware: 2 replicas + 1 spare
// over InfiniBand, each node a 4-GPU V100 box serving the tiny model.
func testCluster(replicas, spares int) hw.Cluster {
	return hw.Cluster{
		Name:    "test-fleet",
		Node:    hw.V100Node(),
		Nodes:   replicas,
		Spares:  spares,
		Network: hw.IBNetwork(),
	}
}

func testTrace(t *testing.T, batches int) []serve.Arrival {
	t.Helper()
	arr, err := serve.Generate(serve.TraceConfig{
		Batches: batches, BatchSize: 2, RatePerSec: 200,
		MinSeq: 16, MaxSeq: 64, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func testPolicy() serve.Policy {
	return serve.Policy{
		Deadline:   2 * time.Second,
		MaxRetries: 3,
		Backoff:    5 * time.Millisecond,
		BackoffCap: 40 * time.Millisecond,
	}
}

func runFleet(t *testing.T, cfg Config, batches int) serve.Result {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.RunFleet(f, testTrace(t, batches), testPolicy(), serve.RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFleetServesHealthy(t *testing.T) {
	res := runFleet(t, Config{
		Cluster: testCluster(2, 0),
		Model:   model.Tiny(),
		Runtime: core.KindLiger,
	}, 30)
	if res.Completed != 30 || res.Failed != 0 || res.Shed != 0 {
		t.Fatalf("healthy fleet: %d ok / %d failed / %d shed", res.Completed, res.Failed, res.Shed)
	}
	if res.Failovers != 0 || res.Retries != 0 {
		t.Fatalf("healthy fleet reported %d failovers, %d retries", res.Failovers, res.Retries)
	}
	// Every latency pays at least the dispatch + completion round trip
	// over the network.
	if res.P50 < 2*hw.IBNetwork().Latency {
		t.Fatalf("p50 %v below one network round trip", res.P50)
	}
}

// NodeStats reads each node's engine and devices: a healthy Intra-Op
// fleet runs every batch's kernel sequence once per device of the
// replica it lands on, so the nodes' kernels sum to that count, and the
// idle spare runs nothing.
func TestFleetNodeStatsCountKernels(t *testing.T) {
	cl := testCluster(2, 1)
	f, err := New(Config{Cluster: cl, Model: model.Tiny(), Runtime: core.KindIntraOp})
	if err != nil {
		t.Fatal(err)
	}
	arrivals := testTrace(t, 30)
	res, err := serve.RunFleet(f, arrivals, testPolicy(), serve.RouterPolicy{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(arrivals) || res.Retries != 0 {
		t.Fatalf("healthy fleet: %d of %d completed, %d retries", res.Completed, len(arrivals), res.Retries)
	}
	comp := parallel.NewCompiler(cl.Node, nccl.Config{})
	want := 0
	for _, a := range arrivals {
		ks, err := comp.IntraOp(model.Tiny(), cl.Node.NumGPUs, a.Workload)
		if err != nil {
			t.Fatal(err)
		}
		want += len(ks) * cl.Node.NumGPUs
	}
	stats := f.NodeStats()
	if len(stats) != cl.TotalNodes() {
		t.Fatalf("%d node stats for %d nodes", len(stats), cl.TotalNodes())
	}
	got := 0
	var fired, completions uint64
	for _, st := range stats {
		got += st.Devices.KernelsRun
		fired += st.Engine.Fired
		completions += st.Events.Device
	}
	if fired == 0 || completions == 0 {
		t.Fatalf("node engines read idle: %+v", stats)
	}
	if got != want {
		t.Fatalf("nodes ran %d kernels, the batches hold %d", got, want)
	}
	if spare := stats[cl.Nodes]; spare.Devices != (gpusim.DeviceStats{}) || spare.Events.Total() != 0 {
		t.Fatalf("idle spare reads %+v", spare)
	}
}

func TestFleetNodeLossFailsOverToSpare(t *testing.T) {
	cfg := Config{
		Cluster: testCluster(2, 1),
		Model:   model.Tiny(),
		Runtime: core.KindLiger,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.NodeFail, Node: 0, Start: 40 * time.Millisecond},
		}},
	}
	res := runFleet(t, cfg, 40)
	if got := res.Completed + res.Failed + res.Shed; got != 40 {
		t.Fatalf("accounting leak: %d of 40", got)
	}
	if res.Failovers < 1 {
		t.Fatalf("node loss produced %d failovers", res.Failovers)
	}
	if res.RecoveryTime <= 0 {
		t.Fatal("re-placement reported zero recovery time")
	}
	if res.Retries < 1 {
		t.Fatal("eviction re-dispatched nothing")
	}
	if res.Completed == 0 {
		t.Fatal("fleet completed nothing after failover")
	}
	// Satellite invariant: the per-request decomposition agrees with the
	// fleet totals — each re-dispatch counted exactly once.
	sum := 0
	for _, pr := range res.PerRequest {
		sum += pr.Retries
	}
	if sum != res.Retries {
		t.Fatalf("per-request retries sum %d != Result.Retries %d", sum, res.Retries)
	}
}

func TestFleetNodeLossNoSpare(t *testing.T) {
	// Two replicas, no spares: losing both strands the backlog.
	cfg := Config{
		Cluster: testCluster(2, 0),
		Model:   model.Tiny(),
		Runtime: core.KindIntraOp,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.NodeFail, Node: 0, Start: 30 * time.Millisecond},
			{Kind: faults.NodeFail, Node: 1, Start: 45 * time.Millisecond},
		}},
	}
	res := runFleet(t, cfg, 40)
	if got := res.Completed + res.Failed + res.Shed; got != 40 {
		t.Fatalf("accounting leak: %d of 40", got)
	}
	if res.Failed == 0 {
		t.Fatal("no-spare node loss failed nothing")
	}
	if res.Failovers != 2 {
		t.Fatalf("failovers = %d, want both unrecovered evictions", res.Failovers)
	}
	if res.RecoveryTime != 0 {
		t.Fatalf("unrecovered eviction reported recovery time %v", res.RecoveryTime)
	}
}

func TestFleetSpareNodeLossShrinksPool(t *testing.T) {
	// Killing the spare itself must not evict any replica.
	cfg := Config{
		Cluster: testCluster(2, 1),
		Model:   model.Tiny(),
		Runtime: core.KindLiger,
		Faults: &faults.Schedule{Events: []faults.Event{
			{Kind: faults.NodeFail, Node: 2, Start: 20 * time.Millisecond},
		}},
	}
	res := runFleet(t, cfg, 30)
	if res.Completed != 30 {
		t.Fatalf("spare loss disturbed serving: %d/30 completed", res.Completed)
	}
	if res.Failovers != 0 {
		t.Fatalf("spare loss evicted a replica: %d failovers", res.Failovers)
	}
}

// marshal renders a Result to the artifact JSON used for determinism
// comparison.
func marshal(t *testing.T, res serve.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFleetByteIdenticalAcrossWorkers(t *testing.T) {
	mk := func(workers int) serve.Result {
		return runFleet(t, Config{
			Cluster: testCluster(3, 1),
			Model:   model.Tiny(),
			Runtime: core.KindLiger,
			Workers: workers,
			Faults: &faults.Schedule{Events: []faults.Event{
				{Kind: faults.NodeFail, Node: 1, Start: 35 * time.Millisecond},
				{Kind: faults.DeviceFail, Node: 0, Device: 2, Start: 60 * time.Millisecond},
			}},
		}, 40)
	}
	serial := marshal(t, mk(1))
	for _, w := range []int{2, 4, 8} {
		if got := marshal(t, mk(w)); got != serial {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", w, got, serial)
		}
	}
}

func TestFleetNodeFailOrderInvariance(t *testing.T) {
	evs := []faults.Event{
		{Kind: faults.NodeFail, Node: 0, Start: 30 * time.Millisecond},
		{Kind: faults.NodeFail, Node: 2, Start: 55 * time.Millisecond},
		{Kind: faults.DeviceFail, Node: 1, Device: 3, Start: 45 * time.Millisecond},
	}
	perms := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}}
	var base string
	for i, p := range perms {
		ordered := make([]faults.Event, len(evs))
		for j, k := range p {
			ordered[j] = evs[k]
		}
		res := runFleet(t, Config{
			Cluster: testCluster(3, 2),
			Model:   model.Tiny(),
			Runtime: core.KindLiger,
			Faults:  &faults.Schedule{Events: ordered},
		}, 40)
		got := marshal(t, res)
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("permutation %v diverged:\n%s\nvs\n%s", p, got, base)
		}
	}
}

func TestFleetRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Cluster: testCluster(0, 1), Model: model.Tiny(), Runtime: core.KindLiger},
		{Cluster: testCluster(2, 0), Model: model.Spec{}, Runtime: core.KindLiger},
		{Cluster: testCluster(2, 0), Model: model.Tiny(), Runtime: core.KindLiger,
			Faults: &faults.Schedule{Events: []faults.Event{
				{Kind: faults.NodeFail, Node: 7, Start: time.Millisecond},
			}}},
		{Cluster: testCluster(2, 0), Model: model.Tiny(), Runtime: core.KindLiger,
			Probe: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
