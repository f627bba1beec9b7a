package cluster

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
)

func disaggCfg(workers int) DisaggConfig {
	return DisaggConfig{
		SequenceWorkload: serve.SequenceWorkload{
			Sequences: 24, RatePerSec: 2000, PromptLen: 32, GenTokens: 8, MaxPool: 8, Seed: 1,
		},
		Node:         hw.V100Node(),
		Network:      hw.IBNetwork(),
		PrefillNodes: 2,
		DecodeNodes:  2,
		Model:        model.Tiny(),
		Runtime:      core.KindLiger,
		Workers:      workers,
	}
}

func runDisagg(t *testing.T, cfg DisaggConfig) serve.Result {
	t.Helper()
	_, res := runDisaggNode(t, cfg)
	return res
}

// runDisaggNode runs cfg and returns the finished simulation with its
// result.
func runDisaggNode(t *testing.T, cfg DisaggConfig) (*Disagg, serve.Result) {
	t.Helper()
	d, err := NewDisagg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// sequences folds a finished run's ledger as Run does: each
// sequence's TTFT, TPOT and total latency.
func sequences(t *testing.T, d *Disagg) (ttft, tpot, total []time.Duration) {
	t.Helper()
	ttft, tpot, total, err := d.ledger.Fold()
	if err != nil {
		t.Fatal(err)
	}
	return ttft, tpot, total
}

func TestDisaggCompletesAllSequences(t *testing.T) {
	d, res := runDisaggNode(t, disaggCfg(1))
	if res.Completed != 24 || len(res.Latencies) != 24 {
		t.Fatalf("incomplete: %+v", res)
	}
	// Every sequence pays one prefill→decode handoff of exactly the
	// prompt's cache bytes.
	transfers, bytes := d.Handoffs()
	if transfers != 24 {
		t.Fatalf("%d KV transfers, want 24", transfers)
	}
	wantBytes := 24 * model.Tiny().KVCacheBytes(32)
	if bytes != wantBytes {
		t.Fatalf("transferred %d bytes, want %d", bytes, wantBytes)
	}
	// TTFT spans two network crossings (dispatch + completion notice)
	// plus the prefill itself; TPOT absorbs the transfer.
	lat := hw.IBNetwork().Latency
	ttft, _, _ := sequences(t, d)
	for i, d := range ttft {
		if d < 2*lat {
			t.Fatalf("sequence %d TTFT %v under two network latencies", i, d)
		}
	}
	minTPOT := time.Duration(hw.IBNetwork().Transfer(model.Tiny().KVCacheBytes(32))) / 8
	if res.TPOT < minTPOT {
		t.Fatalf("avg TPOT %v below the amortized transfer %v", res.TPOT, minTPOT)
	}
	if res.Iterations < 8 {
		t.Fatalf("%d decode iterations for 8-token generations", res.Iterations)
	}
	if res.MeanPool <= 0 || res.MeanPool > 8 {
		t.Fatalf("mean pool %v", res.MeanPool)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// The determinism invariant extends to disaggregation: the full result,
// every sequence's latency included, is byte-identical at any worker
// count.
func TestDisaggByteIdenticalAcrossWorkers(t *testing.T) {
	enc := func(workers int) string {
		d, res := runDisaggNode(t, disaggCfg(workers))
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		ttft, tpot, total := sequences(t, d)
		return fmt.Sprint(ttft, tpot, total) + string(b)
	}
	serial := enc(1)
	for _, w := range []int{2, 4, 8} {
		if got := enc(w); got != serial {
			t.Fatalf("workers=%d diverged from serial:\n%s\nvs\n%s", w, got, serial)
		}
	}
}

// More decode nodes must not slow the workload down: the pools share
// the decode load.
func TestDisaggDecodePoolScales(t *testing.T) {
	one := disaggCfg(1)
	one.DecodeNodes = 1
	one.MaxPool = 4
	narrow := runDisagg(t, one)
	two := disaggCfg(1)
	two.DecodeNodes = 2
	two.MaxPool = 4
	wide := runDisagg(t, two)
	if wide.Makespan > narrow.Makespan {
		t.Fatalf("doubling decode nodes slowed the run: %v -> %v", narrow.Makespan, wide.Makespan)
	}
}

// A KV accounting bug on one decode pool fails the whole run, naming
// the node.
func TestDisaggDoubleReleaseFailsRun(t *testing.T) {
	d, err := NewDisagg(disaggCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	n, dec := d.decodes[1], d.decs[1]
	const seq = 1 << 20 // no workload sequence has this id
	n.eng.At(0, func(simclock.Time) {
		if err := dec.KV.Admit(seq, 16); err != nil {
			t.Error(err)
		}
		dec.KV.Release(seq)
		dec.KV.Release(seq)
	})
	_, err = d.Run()
	if err == nil || !strings.Contains(err.Error(), "decode node 1") || !strings.Contains(err.Error(), "double release") {
		t.Fatalf("run with a double-released sequence returned %v, want decode node 1's invariant violation", err)
	}
	if dec.KV.Violations() != 1 {
		t.Fatalf("%d violations recorded, want 1", dec.KV.Violations())
	}
}

// A sequence a decode pool never releases fails the run, naming the
// node, like any other KV ledger violation.
func TestDisaggLeakedSequenceFailsRun(t *testing.T) {
	d, err := NewDisagg(disaggCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	n, dec := d.decodes[1], d.decs[1]
	const seq = 1 << 20 // no workload sequence has this id
	n.eng.At(0, func(simclock.Time) {
		if err := dec.KV.Admit(seq, 16); err != nil {
			t.Error(err)
		}
	})
	_, err = d.Run()
	if err == nil || !strings.Contains(err.Error(), "decode node 1") || !strings.Contains(err.Error(), "kv cache still holds 1") {
		t.Fatalf("run that leaked a sequence returned %v, want decode node 1's leak error", err)
	}
}

// A sequence whose prefill notice is lost never reaches a decode node,
// so it never finishes: the ledger fails the run.
func TestDisaggNeverFinishedFailsRun(t *testing.T) {
	d, err := NewDisagg(disaggCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	prefillDone := d.done
	d.done = func(owner, req int, status serve.DispatchStatus, now simclock.Time) {
		if req == 5 {
			d.prefillLoad[owner]--
			return
		}
		prefillDone(owner, req, status, now)
	}
	_, err = d.Run()
	if err == nil || !strings.Contains(err.Error(), "23 of 24 sequences finished") {
		t.Fatalf("run that lost a sequence returned %v, want the ledger's error", err)
	}
}

func TestDisaggRejectsBadConfigs(t *testing.T) {
	bad := []func(*DisaggConfig){
		func(c *DisaggConfig) { c.PrefillNodes = 0 },
		func(c *DisaggConfig) { c.DecodeNodes = 0 },
		func(c *DisaggConfig) { c.Sequences = 0 },
		func(c *DisaggConfig) { c.RatePerSec = 0 },
		func(c *DisaggConfig) { c.PromptLen = 0 },
		func(c *DisaggConfig) { c.MaxPool = 0 },
		func(c *DisaggConfig) { c.Model = model.Spec{} },
	}
	for i, mut := range bad {
		cfg := disaggCfg(1)
		mut(&cfg)
		if _, err := NewDisagg(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
