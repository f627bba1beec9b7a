package scenario

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
	"liger/internal/serve"
)

// Compiled is a scenario lowered onto the existing stack: a concrete
// node and model, resolved trace and policy, one faults.Schedule, and
// the runtime kinds to serve. Everything here is a pure function of
// the scenario value, so two compiles of the same file are identical.
type Compiled struct {
	Scenario *Scenario
	Node     hw.Node
	// Cluster is non-nil for fleet scenarios: N replica nodes (plus
	// spares) of Node each, joined by the named network preset.
	Cluster *hw.Cluster
	// Probe is the router's health-probe interval (fleet only; zero
	// means the cluster default).
	Probe time.Duration
	// Hedge is the router's hedging delay (fleet only; zero disables).
	Hedge    time.Duration
	Model    model.Spec
	Kinds    []core.RuntimeKind
	Trace    serve.TraceConfig
	Policy   serve.Policy
	Schedule faults.Schedule
	// Horizon is the nominal trace span (batches / rate); fractional
	// times resolve against it.
	Horizon time.Duration
	// Solo is the analytic duration of one batch on an idle node under
	// the intra-op baseline; "4x" times resolve against it.
	Solo time.Duration
	// Rate is the resolved arrival rate in batches/second.
	Rate float64
	// Continuous is non-nil for continuous-mode workloads: the lowered
	// generative plan (Trace then only feeds reporting).
	Continuous *ContinuousPlan
	// Arrivals is the loaded workload.arrivals file; nil means the run
	// generates Trace.
	Arrivals []serve.Arrival
	// assertions are pre-parsed from Scenario.Assert.
	assertions []*assertion
}

// ContinuousPlan is a continuous-mode workload lowered to concrete
// numbers: sequence shape, pool cap, and the KV admission knobs.
type ContinuousPlan struct {
	// Sequences is the arrival count (workload.batches, or derived from
	// duration × rate).
	Sequences int
	// Prompt/Gen shape every sequence; Pool caps live sequences per
	// decode iteration.
	Prompt, Gen, Pool int
	// KV arms cache admission control (a kv: section was present);
	// Block and Watermark are the paged allocator's knobs.
	KV        bool
	Block     int
	Watermark float64
	// Prefill and Decode size the disaggregated pools, and Network is
	// the fabric the KV handoffs cross; zero Prefill serves on one node.
	Prefill, Decode int
	Network         hw.NetworkSpec
}

// Compile lowers a validated scenario. It performs the checks that
// need resolved absolute times — zero-length windows, overlapping
// same-channel windows, device bounds — and reports each with the
// offending section index, kind, and time range.
func Compile(sc *Scenario) (*Compiled, error) {
	c := &Compiled{Scenario: sc}

	preset := sc.Node.Preset
	if preset == "" {
		preset = "v100"
	}
	node, err := hw.Preset(preset)
	if err != nil {
		return nil, fmt.Errorf("node.preset: %w", err)
	}
	if sc.Node.GPUs > 0 {
		node = node.WithGPUs(sc.Node.GPUs)
	}
	c.Node = node

	modelName := sc.Model
	if modelName == "" {
		modelName = "OPT-30B"
	}
	spec, err := model.ByName(modelName)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	c.Model = spec

	c.Kinds = sc.runtimeKinds()

	if sc.Workload.Continuous() {
		if err := c.compileContinuous(sc); err != nil {
			return nil, err
		}
		return c, c.compileTail(sc)
	}

	// Workload defaults mirror the paper's general evaluation.
	w := sc.Workload
	if w.Batch == 0 {
		w.Batch = 2
	}
	if w.Seq == (SeqRange{}) {
		w.Seq = SeqRange{Min: 16, Max: 128}
	}
	phase := model.Context
	if w.Phase == "decode" {
		phase = model.Decode
		if w.CtxLen == 0 {
			w.CtxLen = 16
		}
	}

	// The intra-op baseline's saturated throughput on an idle node is
	// the normalizer behind capacity-relative rates and solo-multiple
	// times.
	solo := model.Workload{Batch: w.Batch, Phase: phase}
	if phase == model.Decode {
		solo.CtxLen = w.CtxLen
	} else {
		solo.SeqLen = (w.Seq.Min + w.Seq.Max) / 2
	}
	capacity := parallel.IntraOpCapacity(node, spec, solo)
	c.Solo = time.Duration(float64(time.Second) / capacity)
	// A fleet's capacity-relative rate scales with the replica count:
	// "80%" means 80% of what the whole serving pool can absorb.
	effCapacity := capacity
	if sc.Cluster != nil {
		effCapacity = capacity * float64(sc.Cluster.Nodes)
	}
	c.Rate = w.Rate.Resolve(effCapacity)
	if c.Rate <= 0 || !finite(c.Rate) {
		return nil, fmt.Errorf("workload.rate: resolves to %v batches/s", c.Rate)
	}
	batches, err := c.arrivals(w, "batches/s")
	if err != nil {
		return nil, err
	}

	c.Trace = serve.TraceConfig{
		Batches:    batches,
		BatchSize:  w.Batch,
		RatePerSec: c.Rate,
		MinSeq:     w.Seq.Min,
		MaxSeq:     w.Seq.Max,
		Phase:      phase,
		CtxLen:     w.CtxLen,
		Seed:       w.Seed,
	}
	switch w.Process {
	case "poisson":
		c.Trace.Process = serve.Poisson
	case "bursty":
		c.Trace.Process = serve.Bursty
	case "diurnal":
		c.Trace.Process = serve.Diurnal
	}
	if err := c.Trace.Validate(); err != nil {
		return nil, err
	}
	if w.Arrivals != "" {
		data, err := os.ReadFile(w.Arrivals)
		if err == nil {
			c.Arrivals, err = serve.LoadTrace(bytes.NewReader(data))
		}
		if err != nil {
			return nil, fmt.Errorf("workload.arrivals: %w", err)
		}
	}
	return c, c.compileTail(sc)
}

// arrivals returns how many arrivals the workload makes at c.Rate (its
// Batches, or as many as its Duration holds) and sets c.Horizon to the
// time they span; unit names the rate in errors. A horizon that does not
// fit a positive time.Duration is rejected, since the run's clock could
// not reach it.
func (c *Compiled) arrivals(w Workload, unit string) (int, error) {
	n := float64(w.Batches)
	if n == 0 {
		n = math.Ceil(w.Duration.Seconds() * c.Rate)
		if n == 0 {
			return 0, fmt.Errorf("workload.duration %v at rate %.3g/s yields no arrivals", w.Duration, c.Rate)
		}
		if !(n < math.MaxInt64) {
			return 0, fmt.Errorf("workload.duration %v at rate %.3g/s yields %.3g arrivals, more than a run can count", w.Duration, c.Rate, n)
		}
	}
	span := n / c.Rate
	horizon := span * float64(time.Second)
	if !(horizon >= 1 && horizon < math.MaxInt64) {
		return 0, fmt.Errorf("workload.rate: resolves to %v %s, spreading %.3g arrivals over %.3g s, outside the 1ns to %v a run can span",
			c.Rate, unit, n, span, time.Duration(math.MaxInt64))
	}
	c.Horizon = time.Duration(horizon)
	return int(n), nil
}

// AtRate returns a copy of c that serves rate arrivals per second. The
// rate is the one compiled input it replaces: it feeds the trace (or the
// continuous plan's sequence rate), the arrival count of a
// duration-bounded workload, the horizon, and every time the scenario
// resolves against the horizon. Node, model and trace shape stay as
// compiled, and a workload.arrivals file keeps its own instants.
func (c *Compiled) AtRate(rate float64) (*Compiled, error) {
	if !(rate > 0) || !finite(rate) {
		return nil, fmt.Errorf("workload.rate: resolves to %v arrivals/s", rate)
	}
	at := *c
	// compileTail appends the assertions again.
	at.Rate, at.assertions = rate, nil
	n, err := at.arrivals(c.Scenario.Workload, "arrivals/s")
	if err != nil {
		return nil, err
	}
	at.Trace.RatePerSec, at.Trace.Batches = rate, n
	if c.Continuous != nil {
		plan := *c.Continuous
		plan.Sequences = n
		at.Continuous = &plan
	}
	return &at, at.compileTail(c.Scenario)
}

// compileContinuous lowers a continuous-mode workload: sequence shape
// defaults, a prompt-sized capacity normalizer for relative rates, and
// the KV admission knobs. Trace is filled just enough for reporting —
// continuous runs never generate a batch trace.
func (c *Compiled) compileContinuous(sc *Scenario) error {
	w := sc.Workload
	if w.Prompt == 0 {
		w.Prompt = 32
	}
	if w.Gen == 0 {
		w.Gen = 16
	}
	if w.Pool == 0 {
		w.Pool = 8
	}

	// Capacity-relative rates normalize against one prompt's prefill —
	// the unit of admission work — on the intra-op baseline, times the
	// prefill pool of a disaggregated run.
	capacity := parallel.IntraOpCapacity(c.Node, c.Model, model.Workload{Batch: 1, SeqLen: w.Prompt, Phase: model.Context})
	c.Solo = time.Duration(float64(time.Second) / capacity)
	disagg := sc.Cluster != nil && sc.Cluster.Disagg()
	if disagg {
		capacity *= float64(sc.Cluster.Prefill)
	}
	c.Rate = w.Rate.Resolve(capacity)
	if c.Rate <= 0 || !finite(c.Rate) {
		return fmt.Errorf("workload.rate: resolves to %v sequences/s", c.Rate)
	}
	seqs, err := c.arrivals(w, "sequences/s")
	if err != nil {
		return err
	}

	plan := &ContinuousPlan{
		Sequences: seqs,
		Prompt:    w.Prompt,
		Gen:       w.Gen,
		Pool:      w.Pool,
		Block:     16,
		Watermark: 0.05,
	}
	if kv := sc.KV; kv != nil {
		plan.KV = true
		if kv.Block != 0 {
			plan.Block = kv.Block
		}
		if kv.Watermark != 0 {
			plan.Watermark = kv.Watermark
		}
	}
	if disagg {
		// Every decode node serves over its own paged KV cache.
		plan.KV = true
		plan.Prefill, plan.Decode = sc.Cluster.Prefill, sc.Cluster.Decode
		if plan.Network, err = networkPreset(sc.Cluster.Network); err != nil {
			return err
		}
	}
	c.Continuous = plan

	// Reporting-only trace summary (never generated or validated).
	c.Trace = serve.TraceConfig{
		Batches:    seqs,
		BatchSize:  1,
		RatePerSec: c.Rate,
		MinSeq:     w.Prompt,
		MaxSeq:     w.Prompt,
		Process:    serve.Poisson,
		Seed:       w.Seed,
	}
	return nil
}

// compileTail finishes both workload paths: policy, fleet topology,
// chaos schedule, and assertion cross-checks.
func (c *Compiled) compileTail(sc *Scenario) error {
	c.Policy = serve.Policy{
		Deadline:   sc.Policy.Deadline.Resolve(c.Horizon, c.Solo),
		MaxRetries: sc.Policy.Retries,
		Backoff:    sc.Policy.Backoff.Resolve(c.Horizon, c.Solo),
		BackoffCap: sc.Policy.BackoffCap.Resolve(c.Horizon, c.Solo),
		QueueLimit: sc.Policy.QueueLimit,
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}

	if sc.Cluster != nil && !sc.Cluster.Disagg() {
		net, err := networkPreset(sc.Cluster.Network)
		if err != nil {
			return err
		}
		cl := hw.Cluster{
			Name:    sc.Name,
			Node:    c.Node,
			Nodes:   sc.Cluster.Nodes,
			Spares:  sc.Cluster.Spares,
			Network: net,
		}
		if err := cl.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		c.Cluster = &cl
		c.Probe = sc.Cluster.Probe.Resolve(c.Horizon, c.Solo)
		if c.Probe < 0 {
			return fmt.Errorf("cluster.probe_interval: resolves to %v", c.Probe)
		}
		c.Hedge = sc.Policy.Hedge.Resolve(c.Horizon, c.Solo)
		if c.Hedge < 0 {
			return fmt.Errorf("policy.hedge: resolves to %v", c.Hedge)
		}
	}

	if err := c.compileChaos(sc); err != nil {
		return err
	}

	for i, expr := range sc.Assert {
		a, err := parseAssertion(expr)
		if err != nil {
			return fmt.Errorf("assert[%d]: %w", i, err)
		}
		for _, ref := range []*metricRef{&a.lhs, a.rhs} {
			if ref == nil {
				continue
			}
			if !containsString(sc.ResultRuntimes(), ref.runtime) {
				return fmt.Errorf("assert[%d]: %q references runtime %q, which this scenario does not run", i, expr, ref.alias)
			}
		}
		c.assertions = append(c.assertions, a)
	}
	return nil
}

// networkPreset resolves cluster.network, defaulting to ib.
func networkPreset(name string) (hw.NetworkSpec, error) {
	net, err := hw.NetworkPreset(cmp.Or(name, "ib"))
	if err != nil {
		err = fmt.Errorf("cluster.network: %w", err)
	}
	return net, err
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// compileChaos resolves device overrides, explicit events, and random
// generators into one faults.Schedule with absolute times.
func (c *Compiled) compileChaos(sc *Scenario) error {
	numDev := c.Node.NumGPUs
	totalNodes := 1
	if c.Cluster != nil {
		totalNodes = c.Cluster.TotalNodes()
	}
	sched := faults.Schedule{CollTimeout: sc.Chaos.CollTimeout.Resolve(c.Horizon, c.Solo)}

	// Static per-device overrides: persist-to-end windows from t=0.
	for i, d := range sc.Node.Devices {
		if d.Device >= numDev {
			return fmt.Errorf("node.devices[%d]: device %d of a %d-GPU node", i, d.Device, numDev)
		}
		if d.Speed > 0 {
			sched.Events = append(sched.Events, faults.Event{
				Kind: faults.Slowdown, Device: d.Device, Factor: d.Speed})
		}
		if d.Link > 0 {
			sched.Events = append(sched.Events, faults.Event{
				Kind: faults.LinkDegrade, Device: d.Device, Factor: d.Link})
		}
	}

	// Explicit timed events. Windows of the same (kind, node, device)
	// may not overlap and may not be empty — both are author mistakes
	// that the multiplicative fault composition would otherwise silently
	// absorb.
	type window struct {
		idx        int
		start, end time.Duration // end 0 = persists to run end
	}
	open := make(map[[3]int][]window) // (kind, node, device) -> windows
	failedBy := make(map[[2]int]int)  // (node, device) -> event index
	failedNode := make(map[int]int)   // node -> event index
	for i, e := range sc.Chaos.Events {
		kind, _ := faultKindByName(e.Kind)
		if e.Node >= totalNodes {
			return fmt.Errorf("chaos.events[%d] (%s): node %d of a %d-node cluster", i, e.Kind, e.Node, totalNodes)
		}
		if e.Device >= numDev {
			return fmt.Errorf("chaos.events[%d] (%s): device %d of a %d-GPU node", i, e.Kind, e.Device, numDev)
		}
		start := e.Start.Resolve(c.Horizon, c.Solo)
		ev := faults.Event{Kind: kind, Node: e.Node, Device: e.Device, Start: start, Factor: e.Factor}
		if kind == faults.NodeFail {
			ev.Device = 0
			failedNode[e.Node] = i
			sched.Events = append(sched.Events, ev)
			continue
		}
		if kind == faults.DeviceFail {
			failedBy[[2]int{e.Node, e.Device}] = i
			sched.Events = append(sched.Events, ev)
			continue
		}
		var end time.Duration
		if !e.Duration.IsZero() {
			ev.Duration = e.Duration.Resolve(c.Horizon, c.Solo)
			if ev.Duration <= 0 {
				return fmt.Errorf("chaos.events[%d] (%s dev%d): zero-duration window [%v, %v) — the fault would never apply; drop the duration to persist to end of run",
					i, e.Kind, e.Device, start, start)
			}
			end = start + ev.Duration
		}
		key := [3]int{int(kind), e.Node, e.Device}
		for _, prev := range open[key] {
			prevOpenEnded := prev.end == 0
			overlaps := (prevOpenEnded || start < prev.end) && (end == 0 || prev.start < end)
			if overlaps {
				return fmt.Errorf("chaos.events[%d] (%s dev%d, window [%v, %s)) overlaps chaos.events[%d] (window [%v, %s))",
					i, e.Kind, e.Device, start, windowEnd(end), prev.idx, prev.start, windowEnd(prev.end))
			}
		}
		open[key] = append(open[key], window{idx: i, start: start, end: end})
		sched.Events = append(sched.Events, ev)
	}
	if c.Cluster == nil && len(failedBy) >= numDev && numDev > 0 {
		return fmt.Errorf("chaos.events fail all %d devices — nothing would survive to serve", numDev)
	}
	if len(failedNode) >= totalNodes && len(failedNode) > 0 {
		return fmt.Errorf("chaos.events fail all %d nodes — nothing would survive to serve", totalNodes)
	}

	// Seeded random generators. Each generator draws from its own
	// stream (workload seed mixed with the generator's seed and index),
	// so inserting a generator never perturbs its neighbours.
	for i, g := range sc.Chaos.Random {
		kind, _ := faultKindByName(g.Kind)
		rng := rand.New(rand.NewSource(mixSeed(sc.Workload.Seed, g.Seed, i)))
		pool := g.Devices
		if len(pool) == 0 {
			pool = make([]int, numDev)
			for d := range pool {
				pool[d] = d
			}
		}
		for j, d := range pool {
			if d >= numDev {
				return fmt.Errorf("chaos.random[%d].devices[%d]: device %d of a %d-GPU node", i, j, d, numDev)
			}
		}
		lo := g.Window[0].Resolve(c.Horizon, c.Solo)
		hi := g.Window[1].Resolve(c.Horizon, c.Solo)
		if g.Window[0].IsZero() && g.Window[1].IsZero() {
			lo, hi = 0, c.Horizon
		}
		if hi <= lo {
			return fmt.Errorf("chaos.random[%d] (%s): empty window [%v, %v)", i, g.Kind, lo, hi)
		}
		dur := g.Duration.Resolve(c.Horizon, c.Solo)
		if kind != faults.DeviceFail && dur <= 0 {
			return fmt.Errorf("chaos.random[%d] (%s): window duration resolves to %v", i, g.Kind, dur)
		}
		if kind == faults.DeviceFail {
			// Random faults always target node 0 (explicit events carry
			// node targets; generators predate the fleet). Draw distinct
			// devices not already failed; leaving at least one survivor is
			// the generator's job, not the runtime's.
			alive := make([]int, 0, len(pool))
			failedHere := 0
			for _, d := range pool {
				if _, dead := failedBy[[2]int{0, d}]; !dead {
					alive = append(alive, d)
				}
			}
			for key := range failedBy {
				if key[0] == 0 {
					failedHere++
				}
			}
			if g.Count >= numDev-failedHere {
				return fmt.Errorf("chaos.random[%d] (device-fail): count %d would leave no survivor on a %d-GPU node", i, g.Count, numDev)
			}
			if g.Count > len(alive) {
				return fmt.Errorf("chaos.random[%d] (device-fail): count %d exceeds the %d eligible devices", i, g.Count, len(alive))
			}
			for j := 0; j < g.Count; j++ {
				pick := rng.Intn(len(alive))
				dev := alive[pick]
				alive = append(alive[:pick], alive[pick+1:]...)
				failedBy[[2]int{0, dev}] = -1
				sched.Events = append(sched.Events, faults.Event{
					Kind:   faults.DeviceFail,
					Device: dev,
					Start:  lo + time.Duration(rng.Float64()*float64(hi-lo)),
				})
			}
			continue
		}
		for j := 0; j < g.Count; j++ {
			sched.Events = append(sched.Events, faults.Event{
				Kind:     kind,
				Device:   pool[rng.Intn(len(pool))],
				Start:    lo + time.Duration(rng.Float64()*float64(hi-lo)),
				Duration: dur,
				Factor:   g.Factor,
			})
		}
	}

	if c.Cluster != nil {
		if err := sched.ValidateCluster(totalNodes, numDev); err != nil {
			return err
		}
	} else if err := sched.Validate(numDev); err != nil {
		return err
	}
	c.Schedule = sched
	return nil
}

func windowEnd(end time.Duration) string {
	if end == 0 {
		return "end"
	}
	return end.String()
}

// mixSeed derives a generator's stream from the workload seed, the
// generator's declared seed, and its position (splitmix-style odd
// constants keep nearby seeds far apart).
func mixSeed(workload, gen int64, idx int) int64 {
	h := uint64(workload)*0x9E3779B97F4A7C15 ^ uint64(gen)*0xBF58476D1CE4E5B9 ^ uint64(idx+1)*0x94D049BB133111EB
	return int64(h >> 1)
}
