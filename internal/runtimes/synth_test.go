package runtimes_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"liger/internal/cluster"
	"liger/internal/core"
	"liger/internal/gpusim"
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
	// leadFolded is a probe node's under Hybrid sync: the lead folds with
	// the followers (gpusim.Node.FoldLeads).
	leadFolded
)

// build returns a Liger runtime over a fresh node of the rig, built as
// every serving entry point builds one (core.NewEngine).
func (g rig) build(t testing.TB) (*simclock.Engine, *core.Engine, *runtimes.Liger) {
	t.Helper()
	e, err := core.NewEngine(core.Options{Node: g.node, Model: g.spec, Runtime: core.KindLiger, Liger: g.cfg, LigerSet: true})
	if err != nil {
		t.Fatal(err)
	}
	switch g.layout {
	case unfolded:
		e.SimNode().KeepUnfolded()
	case leadFolded:
		e.SimNode().FoldLeads()
	}
	return e.Clock(), e, e.Runtime().(*runtimes.Liger)
}

// readTally reads node's tally into t in the layout of the runtime's
// node: on a rig whose node folds the lead, the lead's slot gets the
// representative's stats, as a probe node's tally does.
func (g rig) readTally(node *gpusim.Node, t *gpusim.Tally) {
	node.ReadTally(t)
	if g.layout == leadFolded {
		t.Devices[0] = t.Devices[len(t.Devices)-1]
	}
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
		g.readTally(node, &m.Before)
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
			g.readTally(node, &m.After)
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
	if g.layout == leadFolded && node.Diverged() {
		t.Fatal("the node that folds its lead diverged")
	}
	return out
}

// recordOf returns the record of the iteration p measured.
func recordOf(p liger.Probe) *liger.Replay {
	rec, ok := liger.Extend(&[3]liger.Probe{p}, 1)
	if !ok {
		panic("the record of a failed iteration")
	}
	return rec
}

// TestSoloIterationIsLayerAffine is the premise of synthesized records:
// for OPT-30B, OPT-66B and the tiny model, a context and a decode shape,
// Hybrid and InterStreamOnly sync, degradation-aware scheduling on and
// off, folded and unfolded, and for OPT-30B and OPT-66B under Hybrid
// sync with the lead folded too, as a probe node folds it, the record of
// a warm solo iteration at 1 to 12 layers is the 1-layer record plus the
// step from 1 to 2 layers once per layer added (liger.Extend of the 1-,
// 2- and 3-layer records). CPU-GPU sync submits each chained iteration
// with a round still pending, so it never replays.
func TestSoloIterationIsLayerAffine(t *testing.T) {
	const depth = 12
	shapes := []model.Workload{
		{Batch: 8, CtxLen: 40, Phase: model.Decode},
		{Batch: 1, SeqLen: 39, Phase: model.Context},
	}
	for _, spec := range []model.Spec{model.OPT30B(), model.OPT66B(), model.Tiny()} {
		for _, sync := range []liger.SyncMode{liger.Hybrid, liger.InterStreamOnly} {
			for _, aware := range []bool{false, true} {
				for _, l := range []layout{folded, unfolded, leadFolded} {
					cfg := liger.DefaultConfig("a100")
					cfg.Sync, cfg.DegradationAware = sync, aware
					name := fmt.Sprintf("%s/%v/aware=%v/unfolded=%v", spec.Name, sync, aware, l == unfolded)
					if l == leadFolded {
						// The tiny model's kernels are short enough for the
						// lead's issue gap to bind: its fold diverges.
						if sync != liger.Hybrid || spec.Name == model.Tiny().Name {
							continue
						}
						name = fmt.Sprintf("%s/%v/aware=%v/leadfolded", spec.Name, sync, aware)
					}
					t.Run(name, func(t *testing.T) {
						byDepth := make([][]liger.Probe, depth+1)
						for k := 1; k <= depth; k++ {
							cut := spec
							cut.Layers = k
							byDepth[k] = rig{hw.A100Node(), cut, cfg, l}.simulated(t, shapes)
						}
						for i, w := range shapes {
							probes := [3]liger.Probe{byDepth[1][i], byDepth[2][i], byDepth[3][i]}
							for k := 1; k <= depth; k++ {
								got, ok := liger.Extend(&probes, k)
								if want := recordOf(byDepth[k][i]); !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
									t.Fatalf("%v at %d layers: extended %+v (%v), simulated %+v", w, k, got, ok, want)
								}
							}
						}
					})
				}
			}
		}
	}
	t.Run("CPUGPU", func(t *testing.T) {
		cfg := liger.DefaultConfig("a100")
		cfg.Sync = liger.CPUGPU
		eng, _, rt := rig{hw.A100Node(), model.OPT30B(), cfg, folded}.build(t)
		n := 0
		rt.SetOnDone(func(runtimes.Completion) {
			if n++; n < 6 {
				rt.Submit(shapes[n%2])
			}
		})
		eng.At(0, func(simclock.Time) { rt.Submit(shapes[0]) })
		eng.Run()
		if synth := runtimes.Store(rt).Stats().Synthesized; n != 6 || runtimes.Replays(rt) != 0 || synth != 0 {
			t.Fatalf("%d iterations, %d replayed, %d records synthesized; want 6, 0, 0", n, runtimes.Replays(rt), synth)
		}
	})
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
// synthesis: every record a run synthesized from probes must equal,
// field for field, the record of the same shape simulated in full on a
// fresh node, chained from the completion of the iteration before. The
// runs are continuous-batching chains of OPT-30B on 80 GB and 40 GB
// A100 nodes, the second with prompts of 384 to 640 tokens, and fleets
// of OPT-30B replicas on the shards of a sharded executor at 1 and 4
// workers, serving context and decode shapes. A fleet's nodes share one
// record store, so each of its records is compared once, and every
// node must see it. Their probe nodes fold
// the lead with the followers and never diverge, so no shape is probed
// again. A chain of the tiny model under the same Hybrid sync diverges,
// and its records, probed again with the lead apart, must match too.
// Extension must also refuse probes whose third step differs from the
// second in any one field.
func TestSynthesizedRecordsMatchSimulation(t *testing.T) {
	cfg := liger.DefaultConfig("a100")
	cfg.DegradationAware = true
	small := hw.A100Node()
	small.GPU.MemGB = 40
	compared := 0
	for _, c := range []struct {
		name        string
		node        hw.Node
		spec        model.Spec
		seqs        int
		prompt, gen [2]int
		pool        int
	}{
		{"80GB", hw.A100Node(), model.OPT30B(), 32, [2]int{16, 48}, [2]int{16, 48}, 16},
		{"40GB", small, model.OPT30B(), 32, [2]int{384, 640}, [2]int{24, 40}, 24},
		{"tiny", hw.A100Node(), model.Tiny(), 24, [2]int{16, 48}, [2]int{8, 24}, 12},
	} {
		t.Run("chain/"+c.name, func(t *testing.T) {
			g := rig{c.node, c.spec, cfg, folded}
			rt, ws := servingChain(t, g, c.seqs, c.prompt, c.gen, c.pool)
			shapes, recs := synthesizedRecords(t, rt, ws)
			compared += matchSimulated(t, g, shapes, recs)
			if n, tiny := runtimes.Store(rt).Stats().Reprobes, c.spec.Name == model.Tiny().Name; tiny != (n > 0) {
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
	t.Run("unequal steps", func(t *testing.T) {
		g := rig{hw.A100Node(), model.OPT30B(), cfg, folded}
		w := []model.Workload{{Batch: 4, CtxLen: 64, Phase: model.Decode}}
		var probes [3]liger.Probe
		for k := range probes {
			cut := g
			cut.spec.Layers = k + 1
			probes[k] = cut.simulated(t, w)[0]
		}
		if got, ok := liger.Extend(&probes, g.spec.Layers); !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", recordOf(g.simulated(t, w)[0])) {
			t.Fatalf("extended %+v (%v), not the simulated record", got, ok)
		}
		// Each perturbation moves one field of the third probe.
		perturb := []func(p *liger.Probe){
			func(p *liger.Probe) { p.Duration++ },
			func(p *liger.Probe) { p.Seqs++ },
			func(p *liger.Probe) { p.Failed = true },
			func(p *liger.Probe) { p.After.Kernels++ },
			func(p *liger.Probe) { p.After.Collectives++ },
			func(p *liger.Probe) { p.Stats.Rounds++ },
			func(p *liger.Probe) { p.Stats.PrimaryKernels++ },
			func(p *liger.Probe) { p.Stats.SecondaryKernels++ },
			func(p *liger.Probe) { p.Stats.Decompositions++ },
			func(p *liger.Probe) { p.Stats.EmptySecondary++ },
			func(p *liger.Probe) { p.Stats.SecondaryOverruns++ },
			func(p *liger.Probe) { p.Stats.DegradedFallbacks++ },
			func(p *liger.Probe) { p.Stats.DegradedRebalances++ },
		}
		for d := range probes[2].After.Devices {
			perturb = append(perturb,
				func(p *liger.Probe) { p.After.Devices[d].ComputeBusy++ },
				func(p *liger.Probe) { p.After.Devices[d].CommBusy++ },
				func(p *liger.Probe) { p.After.Devices[d].OverlapBusy++ },
				func(p *liger.Probe) { p.After.Devices[d].KernelsRun++ })
		}
		for i, f := range perturb {
			moved := probes
			moved[2].After.Devices = slices.Clone(probes[2].After.Devices)
			f(&moved[2])
			if rec, ok := liger.Extend(&moved, g.spec.Layers); ok {
				t.Fatalf("perturbation %d extended to %+v", i, rec)
			}
		}
	})
	if compared < 300 {
		t.Fatalf("%d records compared, want at least 300", compared)
	}
	t.Logf("%d synthesized records match the simulation", compared)
}
