package cluster

import (
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// checkCredit rewires every node of topo that takes dispatches so that
// each completion is checked against the request it is charged to: the
// runtime's own tag for the batch must be the request's id.
func checkCredit(t *testing.T, topo *topology, nodes []*node) {
	t.Helper()
	for _, n := range nodes {
		n := n
		n.rt.SetOnDone(func(c runtimes.Completion) {
			if !n.dead && n.subs[c.ID].req != c.Req {
				t.Errorf("node %d: batch %d of request %d charged to request %d", n.idx, c.ID, c.Req, n.subs[c.ID].req)
			}
			topo.completed(n, c)
		})
	}
}

// badPrompt is a workload no runtime can assemble: a prompt of no
// tokens. Its submit fails on the node.
var badPrompt = model.Workload{Batch: 2, SeqLen: 0, Phase: model.Context}

// TestFleetFailedSubmitKeepsAccounting: a request whose submit fails on
// its node is bounced into the router's failure path, retried and
// failed, and every other request still completes, each credited to
// its own completion.
func TestFleetFailedSubmitKeepsAccounting(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp} {
		t.Run(kind.String(), func(t *testing.T) {
			f, err := New(Config{Cluster: testCluster(1, 0), Model: model.Tiny(), Runtime: kind})
			if err != nil {
				t.Fatal(err)
			}
			checkCredit(t, f.topology, f.nodes)
			var arrivals []serve.Arrival
			for i := range 6 {
				w := model.Workload{Batch: 2, SeqLen: 16 + 8*i, Phase: model.Context}
				if i == 1 {
					w = badPrompt
				}
				arrivals = append(arrivals, serve.Arrival{At: simclock.Time(i) * simclock.Time(time.Millisecond), Workload: w})
			}
			res, err := serve.RunFleet(f, arrivals, testPolicy(), serve.RouterPolicy{Seed: 1})
			if err == nil {
				t.Fatal("the failed submit's error did not surface")
			}
			if res.Completed != 5 || res.Failed != 1 || res.Shed != 0 {
				t.Fatalf("%d completed, %d failed, %d shed of 6 offered; want 5, 1, 0", res.Completed, res.Failed, res.Shed)
			}
		})
	}
}

// TestDisaggFailedPrefillSubmitKeepsAccounting: a dispatch whose submit
// fails on a prefill node bounces as failed, and the node's later
// prefills are still charged to their own sequences: every sequence
// gets exactly one prefill notice and finishes.
func TestDisaggFailedPrefillSubmitKeepsAccounting(t *testing.T) {
	cfg := disaggCfg(1)
	d, err := NewDisagg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCredit(t, d.topology, d.nodes[:cfg.PrefillNodes])
	notices := make([]int, cfg.Sequences)
	failed := 0
	prefillDone := d.done
	d.done = func(owner, req int, status serve.DispatchStatus, now simclock.Time) {
		if req < 0 {
			failed++
			if status != serve.DispatchFailed {
				t.Errorf("the bad prompt's dispatch ended %v", status)
			}
			return
		}
		notices[req]++
		prefillDone(owner, req, status, now)
	}
	// Prefill node 0 gets a prompt it cannot assemble early in the run,
	// ahead of most of the sequences it serves.
	d.front.At(simclock.Time(time.Millisecond), func(simclock.Time) {
		d.dispatch(d.nodes[0], 0, -1, badPrompt)
	})
	if _, err := d.Run(); err == nil {
		t.Fatal("the failed submit's error did not surface")
	}
	if failed != 1 {
		t.Fatalf("the bad prompt got %d notices", failed)
	}
	for seq, n := range notices {
		if n != 1 {
			t.Errorf("sequence %d got %d prefill notices", seq, n)
		}
	}
	if _, _, _, err := d.ledger.Fold(); err != nil {
		t.Fatal(err)
	}
}
