package scenario

import (
	"bytes"
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// continuousYAML is a small continuous-mode scenario; tests splice
// overrides in. The tiny model keeps the per-iteration kernel schedule
// cheap enough for parse/compile/run round-trips.
const continuousYAML = `
name: cont
model: tiny
workload:
  mode: continuous
  batches: 12
  rate: 0.8x
  prompt: 24
  gen: 6
  pool: 4
  seed: 3
kv:
  block: 16
assert:
  - liger.completed == 12
  - liger.ttft > 0s
  - liger.tpot > 0s
  - liger.preemptions == 0
`

func TestParseContinuous(t *testing.T) {
	sc, err := Parse([]byte(continuousYAML), "t")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Workload.Continuous() {
		t.Fatal("workload not continuous")
	}
	if sc.KV == nil || sc.KV.Block != 16 {
		t.Fatalf("kv = %+v", sc.KV)
	}
}

func TestParseContinuousErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{
			"unknown mode",
			"name: t\nworkload:\n  mode: streaming\n  batches: 5\n  rate: 1\n",
			`unknown mode "streaming"`,
		},
		{
			"kv without continuous",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nkv:\n  block: 16\n",
			"kv: admission control needs workload.mode: continuous",
		},
		{
			"generative knobs without continuous",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\n  prompt: 32\n",
			"generative knobs need workload.mode: continuous",
		},
		{
			"continuous with batch",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n  batch: 2\n",
			"workload.batch: continuous mode pools sequences",
		},
		{
			"continuous with phase",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n  phase: decode\n",
			"continuous mode schedules its own prefill and decode phases",
		},
		{
			"continuous with seq range",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n  seq: [16, 128]\n",
			"continuous sequences are shaped by prompt/gen",
		},
		{
			"continuous with constant process",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n  process: constant\n",
			"continuous arrivals are poisson",
		},
		{
			"continuous with cluster",
			"name: t\ncluster:\n  nodes: 2\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n",
			"continuous runs on a single node",
		},
		{
			"continuous with chaos",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\nchaos:\n  events:\n    - kind: slowdown\n      device: 0\n      start: 10%\n      factor: 0.5\n",
			"fault injection is not supported in continuous mode",
		},
		{
			"continuous with policy",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\npolicy:\n  deadline: 4x\n",
			"policies apply to batch serving",
		},
		{
			"kv paged knob retired",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\nkv:\n  paged: true\n",
			`unknown key "kv.paged"`,
		},
		{
			"kv typo suggestion",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\nkv:\n  blok: 32\n",
			`unknown key "kv.blok" (did you mean "block"?)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), "t")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v\nwant substring %q", err, tc.want)
			}
		})
	}
}

// TestCompileContinuousDefaults pins the lowered plan: prompt/gen/pool
// default to 32/16/8, and the paged cache's block size and watermark
// to 16 tokens and 5 %, with or without a kv section. (The kv section
// keeps one explicit key: an empty kv: decodes as null, which means no
// kv section at all.)
func TestCompileContinuousDefaults(t *testing.T) {
	sc, err := Parse([]byte("name: t\nmodel: tiny\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\nkv:\n  watermark: 0.05\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	cp := c.Continuous
	if cp == nil {
		t.Fatal("no continuous plan")
	}
	if cp.Sequences != 5 || cp.Prompt != 32 || cp.Gen != 16 || cp.Pool != 8 {
		t.Errorf("plan = %+v", cp)
	}
	if cp.Block != 16 || cp.Watermark != 0.05 {
		t.Errorf("kv plan = %+v", cp)
	}
	if c.Rate != 1 || c.Horizon.Seconds() != 5 {
		t.Errorf("rate %v horizon %v", c.Rate, c.Horizon)
	}

	// Without a kv section the cache takes the same defaults.
	sc2, err := Parse([]byte("name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compile(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if *c2.Continuous != *cp {
		t.Errorf("plan without a kv section = %+v, want %+v", c2.Continuous, cp)
	}
}

// TestRunContinuousScenario drives the full load → compile → run →
// assert pipeline on a continuous scenario and pins the determinism
// contract: byte-identical reports at any -parallel or -shards setting.
func TestRunContinuousScenario(t *testing.T) {
	render := func(parallel, shards int) string {
		return renderContinuous(t, continuousYAML, RunOptions{Parallel: parallel, Shards: shards})
	}
	base := render(1, 0)
	for _, cfg := range []struct{ parallel, shards int }{{4, 0}, {2, 4}} {
		if got := render(cfg.parallel, cfg.shards); got != base {
			t.Errorf("continuous report differs at parallel=%d shards=%d", cfg.parallel, cfg.shards)
		}
	}
	for _, key := range []string{`"serving"`, `"ttft_ms"`, `"tpot_ms"`} {
		if !strings.Contains(base, key) {
			t.Errorf("report missing %s", key)
		}
	}
}

// renderContinuous runs doc on every runtime and returns its text and
// JSON reports.
func renderContinuous(t *testing.T, doc string, opts RunOptions) string {
	t.Helper()
	sc, err := Parse([]byte(doc), "t")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("assertions failed: %s", rep.Verdict())
	}
	var text, js bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return text.String() + js.String()
}

// A continuous scenario without a kv section serves over the default
// paged cache: its reports are the bytes of the same scenario with
// kv: {block: 16}.
func TestContinuousWithoutKVServesTheDefaultCache(t *testing.T) {
	const kv = "kv:\n  block: 16\n"
	if !strings.Contains(continuousYAML, kv) {
		t.Fatal("continuousYAML lost its kv section")
	}
	with := renderContinuous(t, continuousYAML, RunOptions{})
	without := renderContinuous(t, strings.Replace(continuousYAML, kv, "", 1), RunOptions{})
	if with != without {
		t.Fatalf("reports differ without a kv section:\n%s\nvs\n%s", without, with)
	}
	if !strings.Contains(with, "kv paged (block 16, watermark 5%)") {
		t.Fatalf("report does not name the default cache:\n%s", with)
	}
}

// runContinuousFault serves continuousYAML on Liger with fault applied
// to the single-node run's engine and decode node, and returns the
// run's error.
func runContinuousFault(t *testing.T, fault func(*core.Engine, *serve.DecodeNode)) error {
	t.Helper()
	sc, err := Parse([]byte(continuousYAML), "t")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	testHookDecodeNode = fault
	defer func() { testHookDecodeNode = nil }()
	_, err = RunOne(c, core.KindLiger, RunOptions{})
	return err
}

// foreignSeq is a sequence id no workload sequence has.
const foreignSeq = 1 << 20

// A KV accounting bug on the single node fails the run, like one on a
// disaggregated decode node (cluster's TestDisaggDoubleReleaseFailsRun).
func TestContinuousDoubleReleaseFailsRun(t *testing.T) {
	err := runContinuousFault(t, func(eng *core.Engine, n *serve.DecodeNode) {
		eng.Clock().At(0, func(simclock.Time) {
			if err := n.KV.Admit(foreignSeq, 16); err != nil {
				t.Error(err)
			}
			n.KV.Release(foreignSeq)
			n.KV.Release(foreignSeq)
		})
	})
	if err == nil || !strings.Contains(err.Error(), "decode node 0") || !strings.Contains(err.Error(), "double release") {
		t.Fatalf("run with a double-released sequence returned %v, want the invariant violation", err)
	}
}

// A sequence the single node's cache never releases fails the run.
func TestContinuousLeakedSequenceFailsRun(t *testing.T) {
	err := runContinuousFault(t, func(eng *core.Engine, n *serve.DecodeNode) {
		eng.Clock().At(0, func(simclock.Time) {
			if err := n.KV.Admit(foreignSeq, 16); err != nil {
				t.Error(err)
			}
		})
	})
	if err == nil || !strings.Contains(err.Error(), "kv cache still holds 1") {
		t.Fatalf("run that leaked a sequence returned %v, want the leak error", err)
	}
}

// A lost decode completion stalls the single node's batcher, so its
// sequences never finish: the ledger fails the run before the KV audit
// sees the sequences the stalled batcher still holds.
func TestContinuousNeverFinishedFailsRun(t *testing.T) {
	err := runContinuousFault(t, func(eng *core.Engine, n *serve.DecodeNode) {
		lost := false
		eng.Runtime().SetOnDone(func(c runtimes.Completion) {
			if !lost && c.Workload.Phase == model.Decode {
				lost = true
				return
			}
			n.Batcher.OnDone(c)
		})
	})
	if err == nil || !strings.Contains(err.Error(), "of 12 sequences finished") {
		t.Fatalf("run that lost a completion returned %v, want the ledger's error", err)
	}
}

// TestCompileDisaggPools pins the lowered pools: sizes, network, and a
// capacity-relative rate that scales with the prefill pool.
func TestCompileDisaggPools(t *testing.T) {
	const doc = "name: t\nmodel: tiny\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 0.5x\n"
	compile := func(doc string) *Compiled {
		t.Helper()
		sc, err := Parse([]byte(doc), "t")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	single := compile(doc)
	pooled := compile(doc + "cluster:\n  prefill: 3\n  decode: 2\n  network: ethernet\n")
	cp := pooled.Continuous
	if cp.Prefill != 3 || cp.Decode != 2 || cp.Network.Name != hw.EthernetNetwork().Name {
		t.Errorf("pools = %d prefill / %d decode over %q", cp.Prefill, cp.Decode, cp.Network.Name)
	}
	if pooled.Cluster != nil {
		t.Error("disaggregated pools compiled into a replica fleet")
	}
	if single.Continuous.Prefill != 0 || pooled.Rate != 3*single.Rate {
		t.Errorf("rate %v with 3 prefill nodes, %v on one node", pooled.Rate, single.Rate)
	}
}
