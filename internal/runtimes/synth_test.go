package runtimes_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/kvcache"
	"liger/internal/liger"
	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// rig is how a node under test is built: its hardware, model and
// scheduler configuration, and how it folds.
type rig struct {
	node   hw.Node
	spec   model.Spec
	cfg    liger.Config
	layout layout
}

// layout is how a rig's node folds its devices.
type layout int

const (
	// folded is the runtime's layout: the node folds its followers, and
	// under Hybrid sync keeps the lead apart.
	folded layout = iota
	unfolded
)

// build returns a Liger runtime over a fresh node of the rig, built as
// every serving entry point builds one (core.NewEngine).
func (g rig) build(t testing.TB) (*simclock.Engine, *core.Engine, *runtimes.Liger) {
	t.Helper()
	e, err := core.NewEngine(core.Options{Node: g.node, Model: g.spec, Runtime: core.KindLiger, Liger: g.cfg, LigerSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.layout == unfolded {
		e.SimNode().KeepUnfolded()
	}
	return e.Clock(), e, e.Runtime().(*runtimes.Liger)
}

// simulated runs a cold iteration of ws[0] on a fresh node of the rig
// with replay off, then every shape of ws in turn, each submitted from
// the completion of the one before, and measures each chained iteration
// as a probe measures one.
func (g rig) simulated(t testing.TB, ws []model.Workload) []liger.Probe {
	t.Helper()
	eng, e, rt := g.build(t)
	runtimes.SetReplay(rt, false)
	node := e.SimNode()
	var out []liger.Probe
	var m liger.Probe
	submit := func(w model.Workload) {
		node.ReadTally(&m.Before)
		m.Stats = rt.Scheduler().Stats()
		seq := eng.Seq()
		if err := rt.Submit(w); err != nil {
			t.Fatal(err)
		}
		m.Seqs = int(eng.Seq() - seq)
	}
	cold := true
	rt.SetOnDone(func(c runtimes.Completion) {
		if !cold {
			m.Duration, m.Failed = c.Latency(), c.Failed
			node.ReadTally(&m.After)
			m.Stats = rt.Scheduler().Stats().Since(m.Stats)
			out = append(out, m)
			m = liger.Probe{}
		}
		if cold = false; len(out) < len(ws) {
			submit(ws[len(out)])
		}
	})
	eng.At(0, func(simclock.Time) { submit(ws[0]) })
	eng.Run()
	if len(out) != len(ws) {
		t.Fatalf("%d of %d iterations measured", len(out), len(ws))
	}
	return out
}

// recordOf returns the record of the iteration p measured.
func recordOf(p liger.Probe) *liger.Replay {
	rec, ok := p.Record()
	if !ok {
		panic("the record of a failed iteration")
	}
	return rec
}

// synthesizedRecords returns the shapes of ws, in order and without
// repeats, that rt's record store holds a record for in rt's world, with
// the records, and checks that the store holds no other record, that
// its probe nodes synthesized each of them once and that they marked
// none.
func synthesizedRecords(t *testing.T, rt *runtimes.Liger, ws []model.Workload) ([]model.Workload, []*liger.Replay) {
	t.Helper()
	var shapes []model.Workload
	var recs []*liger.Replay
	for _, w := range ws {
		if slices.Contains(shapes, w) {
			continue
		}
		if rec, _ := runtimes.Record(rt, w); rec != nil {
			shapes, recs = append(shapes, w), append(recs, rec)
		}
	}
	if st := runtimes.Store(rt).Stats(); st.Held != len(recs) || st.Synthesized != len(recs) || st.Marked != 0 || st.Fallbacks != 0 {
		t.Fatalf("%d records found, %+v", len(recs), st)
	}
	return shapes, recs
}

// matchSimulated checks each synthesized record against the record of
// the same shape simulated on a fresh node of the rig, field for field,
// and returns how many it compared.
func matchSimulated(t *testing.T, g rig, shapes []model.Workload, recs []*liger.Replay) int {
	t.Helper()
	if len(shapes) == 0 {
		return 0
	}
	for i, p := range g.simulated(t, shapes) {
		got, want := fmt.Sprintf("%+v", recs[i]), fmt.Sprintf("%+v", recordOf(p))
		if got != want {
			t.Fatalf("%v: synthesized %s, simulated %s", shapes[i], got, want)
		}
	}
	return len(shapes)
}

// servingChain serves sequences on a continuous batcher over one node
// of the rig with replay on, and returns the runtime and the workload
// of every iteration it ran.
func servingChain(t *testing.T, g rig, seqs int, prompt, gen [2]int, pool int) (*runtimes.Liger, []model.Workload) {
	t.Helper()
	eng, _, rt := g.build(t)
	kv, err := kvcache.NewPaged(g.node, g.spec, pool, prompt[1]+gen[1], kvcache.PagedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := serve.NewContinuousBatcher(rt, kv, pool, serve.ContinuousHooks{})
	if err != nil {
		t.Fatal(err)
	}
	var ws []model.Workload
	rt.SetOnDone(func(c runtimes.Completion) {
		ws = append(ws, c.Workload)
		cb.OnDone(c)
	})
	for i := range seqs {
		s := serve.GenSeq{ID: i, Prompt: prompt[0] + i*37%(prompt[1]-prompt[0]+1), Gen: gen[0] + i*11%(gen[1]-gen[0]+1)}
		eng.At(simclock.Time(i)*3*simclock.Time(time.Millisecond), func(now simclock.Time) { cb.Add(s, now) })
	}
	eng.Run()
	if err := cb.Err(); err != nil {
		t.Fatal(err)
	}
	return rt, ws
}

// TestSynthesizedRecordsMatchSimulation is the differential of record
// synthesis: every record a run synthesized from its full-depth probe
// must equal, field for field, the record of the same shape simulated
// on a fresh node with replay off, chained from the completion of the
// iteration before. The runs are continuous-batching chains of OPT-30B
// on 80 GB and 40 GB A100 nodes, the second with prompts of 384 to 640
// tokens, and fleets of OPT-30B replicas on the shards of a sharded
// executor at 1 and 4 workers, serving context and decode shapes. A
// fleet's nodes share one record store, so each of its records is
// compared once, and every node must see it. Their probe nodes fold the
// lead with the followers and never diverge, so no shape is probed
// again. A chain of the tiny model under the same Hybrid sync diverges,
// and its records, probed again with the lead apart, must match too.
// The 80 GB chain runs three more ways: under InterStreamOnly sync,
// which replays but never fast-forwards, so its probes simulate every
// layer; with degradation-aware scheduling off; and on a node that keeps
// its devices unfolded, whose probe node keeps them unfolded too.
func TestSynthesizedRecordsMatchSimulation(t *testing.T) {
	cfg := liger.DefaultConfig("a100")
	cfg.DegradationAware = true
	interStream, unaware := cfg, cfg
	interStream.Sync, unaware.DegradationAware = liger.InterStreamOnly, false
	small := hw.A100Node()
	small.GPU.MemGB = 40
	compared := 0
	for _, c := range []struct {
		name        string
		g           rig
		seqs        int
		prompt, gen [2]int
		pool        int
	}{
		{"80GB", rig{hw.A100Node(), model.OPT30B(), cfg, folded}, 32, [2]int{16, 48}, [2]int{16, 48}, 16},
		{"40GB", rig{small, model.OPT30B(), cfg, folded}, 32, [2]int{384, 640}, [2]int{24, 40}, 24},
		{"tiny", rig{hw.A100Node(), model.Tiny(), cfg, folded}, 24, [2]int{16, 48}, [2]int{8, 24}, 12},
		{"inter-stream-only", rig{hw.A100Node(), model.OPT30B(), interStream, folded}, 32, [2]int{16, 48}, [2]int{16, 48}, 16},
		{"unaware", rig{hw.A100Node(), model.OPT30B(), unaware, folded}, 32, [2]int{16, 48}, [2]int{16, 48}, 16},
		{"unfolded", rig{hw.A100Node(), model.OPT30B(), cfg, unfolded}, 32, [2]int{16, 48}, [2]int{16, 48}, 16},
	} {
		t.Run("chain/"+c.name, func(t *testing.T) {
			g := c.g
			rt, ws := servingChain(t, g, c.seqs, c.prompt, c.gen, c.pool)
			shapes, recs := synthesizedRecords(t, rt, ws)
			compared += matchSimulated(t, g, shapes, recs)
			if n, tiny := runtimes.Store(rt).Stats().Reprobes, g.spec.Name == model.Tiny().Name; tiny != (n > 0) {
				t.Fatalf("%d shapes probed again with the lead apart", n)
			}
		})
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("fleet/workers=%d", workers), func(t *testing.T) {
			f, err := cluster.New(cluster.Config{
				Cluster: hw.Cluster{Name: "synth-fleet", Node: hw.A100Node(), Nodes: 2, Spares: 1, Network: hw.IBNetwork()},
				Model:   model.OPT30B(), Runtime: core.KindLiger, Workers: workers, Liger: cfg, LigerSet: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var arrivals []serve.Arrival
			// 200 shapes, each arriving twice, so that a record one
			// replica synthesized meets the other too.
			for i := range 400 {
				k := i % 200
				w := model.Workload{Batch: 1 + k%7, CtxLen: 20 + k, Phase: model.Decode}
				if k%3 == 0 {
					w = model.Workload{Batch: 1 + k%3, SeqLen: 16 + 2*k, Phase: model.Context}
				}
				arrivals = append(arrivals, serve.Arrival{At: simclock.Time(i) * 40 * simclock.Time(time.Millisecond), Workload: w})
			}
			pol := serve.Policy{Deadline: time.Second, MaxRetries: 3, Backoff: 50 * time.Microsecond, BackoffCap: time.Millisecond}
			if _, err := serve.RunFleet(f, arrivals, pol, serve.RouterPolicy{Seed: 1}); err != nil {
				t.Fatal(err)
			}
			var ws []model.Workload
			for _, a := range arrivals {
				ws = append(ws, a.Workload)
			}
			rts := f.Runtimes()
			first := rts[0].(*runtimes.Liger)
			shapes, recs := synthesizedRecords(t, first, ws)
			compared += matchSimulated(t, rig{hw.A100Node(), model.OPT30B(), cfg, folded}, shapes, recs)
			if n := runtimes.Store(first).Stats().Reprobes; n != 0 {
				t.Fatalf("%d shapes probed again with the lead apart", n)
			}
			// The spare never serves, so its world is still undecided.
			served := 0
			for _, r := range rts[1:] {
				rt := r.(*runtimes.Liger)
				if runtimes.Store(rt) != runtimes.Store(first) {
					t.Fatal("the nodes of a fleet do not share a record store")
				}
				if runtimes.Replays(rt) == 0 {
					continue
				}
				served++
				for i, w := range shapes {
					if rec, _ := runtimes.Record(rt, w); rec != recs[i] {
						t.Fatalf("%v: a node does not see the shared record", w)
					}
				}
			}
			if served == 0 {
				t.Fatal("one node replayed")
			}
		})
	}
	if compared < 300 {
		t.Fatalf("%d records compared, want at least 300", compared)
	}
	t.Logf("%d synthesized records match the simulation", compared)
}

// TestProbesFastForward: a probe runs its shape at full depth, and under
// Hybrid sync its scheduler skips the steady layers, as the runtime's
// own would. Under InterStreamOnly sync, which never fast-forwards, the
// probes of the same chain simulate every layer.
func TestProbesFastForward(t *testing.T) {
	for _, sync := range []liger.SyncMode{liger.Hybrid, liger.InterStreamOnly} {
		t.Run(sync.String(), func(t *testing.T) {
			cfg := liger.DefaultConfig("a100")
			cfg.Sync = sync
			rt, _ := servingChain(t, rig{hw.A100Node(), model.OPT30B(), cfg, folded}, 32, [2]int{16, 48}, [2]int{16, 48}, 16)
			synth, ff := runtimes.Store(rt).Stats().Synthesized, runtimes.ProbeFastForwarded(rt)
			if synth == 0 || (sync == liger.Hybrid) != (ff > 0) {
				t.Fatalf("%d records synthesized, %d periods fast-forwarded", synth, ff)
			}
		})
	}
}
