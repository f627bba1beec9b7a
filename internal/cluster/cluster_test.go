package cluster

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"
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

// NodeStats reads each node's engine and devices on both drivers of the
// node table. On a healthy Intra-Op run every dispatched batch runs its
// kernel sequence once per device of the node it lands on, so the
// dispatch-role nodes (replicas, prefill nodes) sum to that count. The
// decode nodes run their own iterations, and an idle spare runs nothing.
func TestFleetNodeStatsCountKernels(t *testing.T) {
	cl := testCluster(2, 1)
	comp := parallel.NewCompiler(cl.Node, nccl.Config{})
	kernels := func(t *testing.T, w model.Workload) int {
		ks, err := comp.IntraOp(model.Tiny(), cl.Node.NumGPUs, w)
		if err != nil {
			t.Fatal(err)
		}
		return len(ks) * cl.Node.NumGPUs
	}
	// A case serves its workload and returns every node's stats, the
	// number of dispatch-role nodes (the table's first nodes) and the
	// kernels they must sum to, and the nodes that must have run work
	// and the nodes that must have stayed idle.
	type outcome struct {
		stats      []NodeStats
		dispatch   int
		want       int
		busy, idle []int
	}
	cases := []struct {
		name string
		run  func(t *testing.T) outcome
	}{
		{"fleet", func(t *testing.T) outcome {
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
			want := 0
			for _, a := range arrivals {
				want += kernels(t, a.Workload)
			}
			return outcome{stats: f.NodeStats(), dispatch: cl.Nodes, want: want, idle: []int{cl.Nodes}}
		}},
		{"disagg", func(t *testing.T) outcome {
			cfg := disaggCfg(1)
			cfg.Runtime = core.KindIntraOp
			d, err := NewDisagg(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(); err != nil {
				t.Fatal(err)
			}
			prompt := model.Workload{Batch: 1, SeqLen: cfg.PromptLen, Phase: model.Context}
			return outcome{
				stats: d.NodeStats(), dispatch: cfg.PrefillNodes,
				want: cfg.Sequences * kernels(t, prompt),
				busy: []int{0, 1, 2, 3},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.run(t)
			got := 0
			var fired, completions uint64
			for _, st := range o.stats[:o.dispatch] {
				got += st.Devices.KernelsRun
				fired += st.Engine.Fired
				completions += st.Events.Device
			}
			if fired == 0 || completions == 0 {
				t.Fatalf("dispatch node engines read idle: %+v", o.stats)
			}
			if got != o.want {
				t.Fatalf("dispatch nodes ran %d kernels, the batches hold %d", got, o.want)
			}
			for _, i := range o.busy {
				if st := o.stats[i]; st.Devices.KernelsRun == 0 || st.Engine.Fired == 0 || st.Events.Device == 0 {
					t.Fatalf("node %d reads idle: %+v", i, st)
				}
			}
			for _, i := range o.idle {
				if st := o.stats[i]; st.Devices != (gpusim.DeviceStats{}) || st.Events.Total() != 0 {
					t.Fatalf("idle node %d reads %+v", i, st)
				}
			}
		})
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

// A network latency is the sharded executor's lookahead, so both
// constructors must reject a non-positive one through hw's validation
// before simclock.NewSharded would panic on it.
func TestNonPositiveNetworkLatencyRejected(t *testing.T) {
	for _, lat := range []time.Duration{0, -time.Microsecond} {
		net := hw.IBNetwork()
		net.Latency = lat
		cl := testCluster(2, 1)
		cl.Network = net
		dcfg := disaggCfg(1)
		dcfg.Network = net
		for name, build := range map[string]func() error{
			"New": func() error {
				_, err := New(Config{Cluster: cl, Model: model.Tiny(), Runtime: core.KindLiger})
				return err
			},
			"NewDisagg": func() error { _, err := NewDisagg(dcfg); return err },
		} {
			err := build()
			if err == nil || !strings.Contains(err.Error(), "needs a positive latency") {
				t.Errorf("%s with latency %v: err = %v, want hw's positive-latency error", name, lat, err)
			}
		}
	}
}

// A node engine that cannot be built (OPT-66B does not fit a 4×16 GB
// V100 node) fails either constructor and stops the sharded executor's
// worker goroutines.
func TestTopologyBuildFailureStopsWorkers(t *testing.T) {
	// Count the pool's workers by their stacks, not all goroutines: the
	// runtime's finalizer goroutine counts as a user goroutine while it
	// runs finalizers.
	workers := func() int {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), "internal/runner.NewPool.func")
	}
	before := workers()
	if _, err := New(Config{Cluster: testCluster(2, 1), Model: model.OPT66B(), Runtime: core.KindLiger, Workers: 4}); err == nil {
		t.Fatal("fleet of nodes too small for the model accepted")
	}
	cfg := disaggCfg(4)
	cfg.Model = model.OPT66B()
	if _, err := NewDisagg(cfg); err == nil {
		t.Fatal("disagg on nodes too small for the model accepted")
	}
	if after := workers(); after != before {
		t.Fatalf("%d pool workers before the failed builds, %d after", before, after)
	}
}
