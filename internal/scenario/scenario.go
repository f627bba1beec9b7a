// Package scenario is the declarative robustness DSL: a YAML/JSON
// format describing one chaos experiment — node, workload, timed and
// randomized fault events, and end-of-run assertions — plus the loader,
// the compiler that lowers a scenario onto the faults/serve/runtimes
// stack, the assertion evaluator, and a seeded fleet stress harness.
//
// PRs 2–3 made fault injection and elastic failover deterministic, but
// every chaos experiment was still hand-coded Go. A scenario file turns
// that machinery into data: the `scenarios/` corpus doubles as the
// repo's robustness acceptance suite (run in CI), and `ligersim stress`
// generates whole randomized fleets of scenarios from one master seed.
// Everything downstream of a scenario — schedules, traces, reports — is
// a pure function of the file and the seed, byte-identical at any
// -parallel or -shards setting.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"liger/internal/core"
	"liger/internal/faults"
	"liger/internal/liger"
)

// Scenario is the typed form of one scenario file.
type Scenario struct {
	// Name identifies the scenario in reports; defaults to the file's
	// base name without extension.
	Name string `yaml:"name"`
	// Description is free text echoed into reports.
	Description string `yaml:"description"`
	// Model names the transformer to serve (model.ByName); defaults to
	// OPT-30B, the paper's common testbed model.
	Model string `yaml:"model"`
	// Runtimes lists the engines to run: liger, intra, inter, interth.
	// Empty means the paper's three headline runtimes.
	Runtimes []string `yaml:"runtimes" want:"a runtime name"`
	Node     NodeSpec `yaml:"node"`
	// Liger tunes the Liger runtime; other runtimes ignore it.
	Liger LigerSpec `yaml:"liger"`
	// Cluster, when present, lifts the scenario to a fleet: N replica
	// nodes (each shaped by Node) plus spares behind an inter-node
	// network, served through the health-aware request router. Enables
	// the node-fail chaos kind and per-event node targets. With prefill
	// and decode pools instead, it disaggregates a continuous workload.
	Cluster  *ClusterSpec `yaml:"cluster"`
	Workload Workload     `yaml:"workload,required"`
	// KV shapes a continuous-mode workload's paged KV cache; without
	// it the cache takes its defaults.
	KV     *KVSpec    `yaml:"kv"`
	Policy PolicySpec `yaml:"policy"`
	Chaos  Chaos      `yaml:"chaos"`
	// Assert holds the end-of-run assertions, one expression per line
	// (see assert.go for the grammar).
	Assert []string `yaml:"assert" want:"an expression string"`
}

// ClusterSpec describes the fleet topology: either Nodes replicas
// (plus Spares) behind the router, or a continuous workload's Prefill
// and Decode pools.
type ClusterSpec struct {
	// Nodes is the number of model replicas (one per node).
	Nodes int `yaml:"nodes"`
	// Spares is the number of idle standby nodes available for replica
	// re-placement after whole-node loss.
	Spares int `yaml:"spares"`
	// Prefill and Decode size the disaggregated pools of a continuous
	// workload: prompts prefill on the first pool, and each KV cache
	// crosses Network to a decode node. They exclude Nodes, Spares and
	// Probe.
	Prefill int `yaml:"prefill"`
	Decode  int `yaml:"decode"`
	// Network names the inter-node network preset (ib, ethernet);
	// defaults to ib.
	Network string `yaml:"network"`
	// Probe is the router's health-probe interval; it quantizes
	// node-loss detection. Zero uses the cluster layer's default.
	Probe TimeSpec `yaml:"probe_interval"`
}

// Disagg reports whether the cluster is disaggregated prefill and
// decode pools rather than replicas.
func (c *ClusterSpec) Disagg() bool { return c.Prefill != 0 || c.Decode != 0 }

func (c *ClusterSpec) validate() error {
	switch {
	case c.Disagg() && (c.Nodes != 0 || c.Spares != 0 || !c.Probe.IsZero()):
		return fmt.Errorf("cluster.prefill/decode: disaggregated pools take no nodes, spares or probe_interval")
	case c.Disagg() && (c.Prefill < 1 || c.Decode < 1):
		return fmt.Errorf("cluster.prefill/decode: need at least one node in each pool, got %d prefill / %d decode", c.Prefill, c.Decode)
	case !c.Disagg() && c.Nodes < 1:
		return fmt.Errorf("cluster.nodes: need at least one replica node, got %d", c.Nodes)
	case c.Spares < 0:
		return fmt.Errorf("cluster.spares: negative spare count %d", c.Spares)
	}
	switch c.Network {
	case "", "ib", "ethernet":
	default:
		return fmt.Errorf("cluster.network: unknown network preset %q (want ib or ethernet)", c.Network)
	}
	return nil
}

// LigerSpec sets the Liger scheduler's knobs. A zero field keeps the
// node's default (liger.DefaultConfig); the runtime rejects values out
// of its range when the run builds it.
type LigerSpec struct {
	// Sync is the synchronization mode (§3.4): hybrid, cpu-gpu or
	// inter-stream-only.
	Sync string `yaml:"sync"`
	// ContentionFactor scales the secondary subset's budget (§3.5).
	ContentionFactor float64 `yaml:"contention_factor"`
	// DivisionFactor is the kernel decomposition factor (§3.6).
	DivisionFactor int `yaml:"division_factor"`
	// Inflight is the processing-list size.
	Inflight int `yaml:"inflight"`
}

// syncModes maps the liger.sync spellings to the scheduler's modes.
var syncModes = map[string]liger.SyncMode{
	"hybrid": liger.Hybrid, "cpu-gpu": liger.CPUGPU, "inter-stream-only": liger.InterStreamOnly,
}

func (l LigerSpec) validate() error {
	if _, ok := syncModes[l.Sync]; l.Sync != "" && !ok {
		return fmt.Errorf("liger.sync: unknown sync mode %q (want hybrid, cpu-gpu or inter-stream-only)", l.Sync)
	}
	return nil
}

// NodeSpec selects and optionally degrades the simulated hardware.
type NodeSpec struct {
	// Preset is the hw preset name (v100, a100); defaults to v100.
	Preset string `yaml:"preset"`
	// GPUs overrides the preset's device count when positive.
	GPUs int `yaml:"gpus"`
	// Devices holds static per-device overrides, applied as
	// persist-to-end fault windows before any chaos event.
	Devices []DeviceOverride `yaml:"devices"`
}

// DeviceOverride statically degrades one device for the whole run.
type DeviceOverride struct {
	Device int `yaml:"device"`
	// Speed scales the device's overall progress rate in (0, 1]; 0
	// means no speed override.
	Speed float64 `yaml:"speed"`
	// Link scales only the device's communication rate in (0, 1]; 0
	// means no link override.
	Link float64 `yaml:"link"`
}

// Workload describes the request trace. It lowers onto
// serve.TraceConfig verbatim, so goodput/SLO accounting is the serving
// layer's own.
type Workload struct {
	// Batches is the number of batch arrivals. Exactly one of Batches
	// and Duration must be set; Duration derives Batches from Rate.
	Batches int `yaml:"batches"`
	// Duration is the nominal trace span (alternative to Batches).
	Duration time.Duration `yaml:"duration"`
	// Batch is requests per batch (default 2, the paper's setting).
	Batch int `yaml:"batch"`
	// Rate is the batch arrival rate: either absolute batches/second or
	// relative to the node's analytic intra-op capacity ("0.8x").
	Rate RateSpec `yaml:"rate"`
	// Process is the arrival process: constant, poisson, bursty,
	// diurnal (default constant).
	Process string `yaml:"process"`
	// Seq bounds the uniform per-batch sequence length (defaults
	// 16–128, the paper's range).
	Seq SeqRange `yaml:"seq"`
	// Phase is context (default) or decode.
	Phase string `yaml:"phase"`
	// CtxLen is the KV-cache length for decode traces.
	CtxLen int `yaml:"ctx"`
	// Mode selects the serving discipline: "" (batch serving, the
	// default) or "continuous" (iteration-level generative scheduling:
	// Batches counts sequences, Rate is the sequence arrival rate, and
	// Prompt/Gen/Pool shape the generation).
	Mode string `yaml:"mode"`
	// Prompt/Gen are the per-sequence prefill and decode lengths
	// (continuous mode; defaults 32/16).
	Prompt int `yaml:"prompt"`
	Gen    int `yaml:"gen"`
	// Pool caps live sequences per decode iteration (continuous mode;
	// default 8).
	Pool int `yaml:"pool"`
	// Arrivals names an arrival file (ligersim -tracesave's format,
	// relative to the scenario file) that replaces the generated trace
	// in batch and fleet modes. Batches and rate still set the horizon
	// that relative times resolve against and the report's trace line;
	// the file's arrival count is not checked against them.
	Arrivals string `yaml:"arrivals"`
	// Seed drives the trace and every seeded chaos generator.
	Seed int64 `yaml:"seed"`
}

// KVSpec shapes the paged KV cache every continuous-mode run serves
// over: prompts are admitted in whole blocks, the cache grows one
// token per decode iteration, and the newest sequence is preempted
// when blocks run out.
type KVSpec struct {
	// Block is the paged allocator's tokens-per-block (default 16).
	Block int `yaml:"block"`
	// Watermark is the free-block fraction under which the scheduler
	// preempts proactively (default 0.05).
	Watermark float64 `yaml:"watermark"`
}

func (k *KVSpec) validate() error {
	switch {
	case k.Block < 0:
		return fmt.Errorf("kv.block: negative block size %d", k.Block)
	case k.Watermark < 0 || k.Watermark >= 1:
		return fmt.Errorf("kv.watermark: %v outside [0, 1)", k.Watermark)
	}
	return nil
}

// Continuous reports whether the workload runs the iteration-level
// generative discipline.
func (w Workload) Continuous() bool { return w.Mode == "continuous" }

// PolicySpec is the deadline/retry serving policy. Durations accept
// the solo-multiple form ("10x" = ten solo batch durations), so a
// scenario stays meaningful when the cost model moves.
type PolicySpec struct {
	Deadline   TimeSpec `yaml:"deadline"`
	Retries    int      `yaml:"retries"`
	Backoff    TimeSpec `yaml:"backoff"`
	BackoffCap TimeSpec `yaml:"backoff_cap"`
	QueueLimit int      `yaml:"queue_limit"`
	// Hedge is the fleet router's hedging delay: a request with no
	// completion after this span gets one duplicate dispatch to a
	// different healthy replica. Cluster scenarios only.
	Hedge TimeSpec `yaml:"hedge"`
}

// Chaos is the fault plan: explicit timed events plus seeded
// randomized generators.
type Chaos struct {
	// CollTimeout arms the collective watchdog (required by stall/drop
	// shapes so hung rendezvous abort instead of waiting out windows).
	CollTimeout TimeSpec      `yaml:"coll_timeout"`
	Events      []ChaosEvent  `yaml:"events"`
	Random      []RandomChaos `yaml:"random"`
}

// ChaosEvent is one explicit timed fault.
type ChaosEvent struct {
	// Kind is a faults.Kind name: slowdown, link-degrade, device-drop,
	// coll-stall, device-fail, node-fail (cluster scenarios only).
	Kind string `yaml:"kind"`
	// Node is the cluster node the event targets (cluster scenarios
	// only; node-fail's whole target, a device event's host node).
	Node   int `yaml:"node"`
	Device int `yaml:"device"`
	// Start opens the window ("30%" of the horizon or "12ms").
	Start TimeSpec `yaml:"start"`
	// Duration is the window length; omitted means persist-to-end.
	// device-fail ignores it. An explicitly zero-length window is a
	// validation error (the author almost certainly meant something).
	Duration TimeSpec `yaml:"duration"`
	// Factor is the rate multiplier for slowdown/link-degrade.
	Factor float64 `yaml:"factor"`
}

// RandomChaos is a seeded generator expanding into Count events of one
// kind with starts drawn uniformly from Window.
type RandomChaos struct {
	Kind  string `yaml:"kind"`
	Count int    `yaml:"count"`
	// Window bounds the generated start instants [lo, hi).
	Window Window `yaml:"window"`
	// Duration is each generated window's length.
	Duration TimeSpec `yaml:"duration"`
	Factor   float64  `yaml:"factor"`
	// Devices restricts the target devices; empty means any device.
	Devices []int `yaml:"devices"`
	// Seed offsets the workload seed for this generator; generators
	// with equal seeds at different positions still draw independently.
	Seed int64 `yaml:"seed"`
}

// Load reads and validates a scenario file (YAML or JSON).
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	sc, err := Parse(data, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	if a := sc.Workload.Arrivals; a != "" && !filepath.IsAbs(a) {
		sc.Workload.Arrivals = filepath.Join(filepath.Dir(path), a)
	}
	return sc, nil
}

// Parse decodes scenario bytes. defaultName names the scenario when
// the file omits `name:`.
func Parse(data []byte, defaultName string) (*Scenario, error) {
	doc, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	sc, err := decodeScenario(doc)
	if err != nil {
		return nil, err
	}
	if sc.Name == "" {
		sc.Name = defaultName
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// runtimeAliases maps scenario runtime names to engine kinds; a
// kind's String is its result name.
var runtimeAliases = map[string]core.RuntimeKind{
	"liger":    core.KindLiger,
	"intra":    core.KindIntraOp,
	"intra-op": core.KindIntraOp,
	"inter":    core.KindInterOp,
	"inter-op": core.KindInterOp,
	"interth":  core.KindInterTh,
	"inter-th": core.KindInterTh,
}

// faultKinds lists the scenario fault kinds, spelled by their String,
// in the order error messages name them.
var faultKinds = []faults.Kind{faults.Slowdown, faults.LinkDegrade, faults.DeviceDrop, faults.CollStall, faults.DeviceFail, faults.NodeFail}

func faultKindByName(name string) (faults.Kind, bool) {
	for _, k := range faultKinds {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// unknownKind reports an unrecognized fault kind at path.
func unknownKind(path, kind string) error {
	names := make([]string, len(faultKinds))
	for i, k := range faultKinds {
		names[i] = k.String()
	}
	return fmt.Errorf("%s: unknown kind %q (want %s)", path, kind, strings.Join(names, ", "))
}

// Validate checks everything that needs no resolved horizon; window
// overlap and zero-length checks that need absolute times live in
// Compile. Errors name the section, index, and field so authors can
// find the offending line.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario needs a name")
	}
	for i, rt := range s.Runtimes {
		if _, ok := runtimeAliases[strings.ToLower(rt)]; !ok {
			return fmt.Errorf("runtimes[%d]: unknown runtime %q (want liger, intra, inter, or interth)", i, rt)
		}
	}
	if err := s.Node.validate(); err != nil {
		return err
	}
	if err := s.Liger.validate(); err != nil {
		return err
	}
	if s.Cluster != nil {
		if err := s.Cluster.validate(); err != nil {
			return err
		}
	}
	if err := s.Workload.validate(); err != nil {
		return err
	}
	if s.KV != nil {
		if !s.Workload.Continuous() {
			return fmt.Errorf("kv: admission control needs workload.mode: continuous")
		}
		if err := s.KV.validate(); err != nil {
			return err
		}
	}
	if s.Cluster != nil && s.Cluster.Disagg() && !s.Workload.Continuous() {
		return fmt.Errorf("cluster.prefill/decode: disaggregated pools serve workload.mode: continuous")
	}
	if s.Workload.Continuous() {
		switch {
		case s.Cluster != nil && !s.Cluster.Disagg():
			return fmt.Errorf("workload.mode: continuous runs on a single node or on cluster.prefill/decode pools, not on replicas")
		case len(s.Chaos.Events) > 0 || len(s.Chaos.Random) > 0:
			return fmt.Errorf("chaos: fault injection is not supported in continuous mode yet")
		case s.Policy != (PolicySpec{}):
			return fmt.Errorf("policy: deadline/retry policies apply to batch serving, not continuous mode")
		}
	}
	if err := s.Policy.validate(); err != nil {
		return err
	}
	if err := s.Chaos.validate(s.Cluster != nil); err != nil {
		return err
	}
	if s.Cluster == nil && !s.Policy.Hedge.IsZero() {
		return fmt.Errorf("policy.hedge: hedging needs a cluster (a single node has no second replica)")
	}
	for i, expr := range s.Assert {
		if _, err := parseAssertion(expr); err != nil {
			return fmt.Errorf("assert[%d]: %w", i, err)
		}
	}
	return nil
}

func (n NodeSpec) validate() error {
	if n.GPUs < 0 {
		return fmt.Errorf("node.gpus: negative GPU count %d", n.GPUs)
	}
	seen := make(map[int]int)
	for i, d := range n.Devices {
		if d.Device < 0 {
			return fmt.Errorf("node.devices[%d]: negative device index %d", i, d.Device)
		}
		if prev, dup := seen[d.Device]; dup {
			return fmt.Errorf("node.devices[%d]: device %d already overridden by node.devices[%d]", i, d.Device, prev)
		}
		seen[d.Device] = i
		if d.Speed == 0 && d.Link == 0 {
			return fmt.Errorf("node.devices[%d]: override needs a speed or link factor", i)
		}
		if d.Speed != 0 && (d.Speed <= 0 || d.Speed > 1) {
			return fmt.Errorf("node.devices[%d]: speed %v outside (0, 1]", i, d.Speed)
		}
		if d.Link != 0 && (d.Link <= 0 || d.Link > 1) {
			return fmt.Errorf("node.devices[%d]: link %v outside (0, 1]", i, d.Link)
		}
	}
	return nil
}

func (w Workload) validate() error {
	switch {
	case w.Batches < 0:
		return fmt.Errorf("workload.batches: negative count %d", w.Batches)
	case w.Duration < 0:
		return fmt.Errorf("workload.duration: negative span %v", w.Duration)
	case w.Batches == 0 && w.Duration == 0:
		return fmt.Errorf("workload: set batches or duration")
	case w.Batches > 0 && w.Duration > 0:
		return fmt.Errorf("workload: batches and duration are mutually exclusive")
	case w.Rate.IsZero():
		return fmt.Errorf("workload.rate: required (absolute batches/s or capacity-relative like \"0.8x\")")
	case w.Batch < 0:
		return fmt.Errorf("workload.batch: negative batch size %d", w.Batch)
	case w.Seq.Min < 0 || w.Seq.Max < 0 || (w.Seq.Max > 0 && w.Seq.Max < w.Seq.Min):
		return fmt.Errorf("workload.seq: bad range [%d, %d]", w.Seq.Min, w.Seq.Max)
	case w.CtxLen < 0:
		return fmt.Errorf("workload.ctx: negative context length %d", w.CtxLen)
	}
	switch w.Process {
	case "", "constant", "poisson", "bursty", "diurnal":
	default:
		return fmt.Errorf("workload.process: unknown process %q (want constant, poisson, bursty, or diurnal)", w.Process)
	}
	switch w.Phase {
	case "", "context", "decode":
	default:
		return fmt.Errorf("workload.phase: unknown phase %q (want context or decode)", w.Phase)
	}
	switch w.Mode {
	case "", "continuous":
	default:
		return fmt.Errorf("workload.mode: unknown mode %q (want continuous)", w.Mode)
	}
	if w.Prompt < 0 || w.Gen < 0 || w.Pool < 0 {
		return fmt.Errorf("workload: negative prompt/gen/pool %d/%d/%d", w.Prompt, w.Gen, w.Pool)
	}
	if w.Continuous() {
		switch {
		case w.Phase != "" || w.CtxLen != 0:
			return fmt.Errorf("workload.phase/ctx: continuous mode schedules its own prefill and decode phases")
		case w.Batch != 0:
			return fmt.Errorf("workload.batch: continuous mode pools sequences per iteration; size the pool with workload.pool")
		case w.Seq != (SeqRange{}):
			return fmt.Errorf("workload.seq: continuous sequences are shaped by prompt/gen")
		case w.Process != "" && w.Process != "poisson":
			return fmt.Errorf("workload.process: continuous arrivals are poisson; drop the key or set poisson")
		case w.Arrivals != "":
			return fmt.Errorf("workload.arrivals: continuous mode draws its own poisson arrivals")
		}
	} else if w.Prompt != 0 || w.Gen != 0 || w.Pool != 0 {
		return fmt.Errorf("workload.prompt/gen/pool: generative knobs need workload.mode: continuous")
	}
	return nil
}

func (p PolicySpec) validate() error {
	switch {
	case p.Retries < 0:
		return fmt.Errorf("policy.retries: negative budget %d", p.Retries)
	case p.QueueLimit < 0:
		return fmt.Errorf("policy.queue_limit: negative limit %d", p.QueueLimit)
	case p.Retries > 0 && p.Backoff.IsZero():
		return fmt.Errorf("policy: retries without a backoff would resubmit at the failure instant")
	}
	return nil
}

func (c Chaos) validate(cluster bool) error {
	for i, e := range c.Events {
		if _, ok := faultKindByName(e.Kind); !ok {
			return unknownKind(fmt.Sprintf("chaos.events[%d]", i), e.Kind)
		}
		if e.Device < 0 {
			return fmt.Errorf("chaos.events[%d] (%s): negative device index %d", i, e.Kind, e.Device)
		}
		if e.Node != 0 && !cluster {
			return fmt.Errorf("chaos.events[%d] (%s): node targets need a cluster section", i, e.Kind)
		}
		if e.Node < 0 {
			return fmt.Errorf("chaos.events[%d] (%s): negative node index %d", i, e.Kind, e.Node)
		}
		switch e.Kind {
		case "slowdown", "link-degrade":
			if e.Factor <= 0 || e.Factor > 1 {
				return fmt.Errorf("chaos.events[%d] (%s): factor %v outside (0, 1]", i, e.Kind, e.Factor)
			}
		case "device-fail":
			if !e.Duration.IsZero() {
				return fmt.Errorf("chaos.events[%d] (device-fail): a permanent failure has no duration", i)
			}
		case "node-fail":
			if !cluster {
				return fmt.Errorf("chaos.events[%d] (node-fail): whole-node loss needs a cluster section", i)
			}
			if !e.Duration.IsZero() {
				return fmt.Errorf("chaos.events[%d] (node-fail): a permanent failure has no duration", i)
			}
			if e.Factor != 0 {
				return fmt.Errorf("chaos.events[%d] (node-fail): factor has no meaning for whole-node loss", i)
			}
		}
	}
	// Duplicate device-fail / node-fail is a plan bug, not an idempotent
	// no-op: report both offending indices so the author can find the
	// lines.
	failed := make(map[[2]int]int)
	failedNode := make(map[int]int)
	for i, e := range c.Events {
		switch e.Kind {
		case "device-fail":
			key := [2]int{e.Node, e.Device}
			if prev, dup := failed[key]; dup {
				return fmt.Errorf("chaos.events[%d] fails device %d twice (first failed by chaos.events[%d])", i, e.Device, prev)
			}
			failed[key] = i
		case "node-fail":
			if prev, dup := failedNode[e.Node]; dup {
				return fmt.Errorf("chaos.events[%d] fails node %d twice (first failed by chaos.events[%d])", i, e.Node, prev)
			}
			failedNode[e.Node] = i
		}
	}
	for i, g := range c.Random {
		if _, ok := faultKindByName(g.Kind); !ok {
			return unknownKind(fmt.Sprintf("chaos.random[%d]", i), g.Kind)
		}
		if g.Kind == "node-fail" {
			return fmt.Errorf("chaos.random[%d]: node-fail is explicit-only — losing a whole node is a headline event, schedule it in chaos.events", i)
		}
		if g.Count <= 0 {
			return fmt.Errorf("chaos.random[%d] (%s): count must be positive, got %d", i, g.Kind, g.Count)
		}
		switch g.Kind {
		case "slowdown", "link-degrade":
			if g.Factor <= 0 || g.Factor > 1 {
				return fmt.Errorf("chaos.random[%d] (%s): factor %v outside (0, 1]", i, g.Kind, g.Factor)
			}
		case "device-fail":
			if !g.Duration.IsZero() {
				return fmt.Errorf("chaos.random[%d] (device-fail): a permanent failure has no duration", i)
			}
		default:
			if g.Duration.IsZero() {
				return fmt.Errorf("chaos.random[%d] (%s): generated windows need a duration", i, g.Kind)
			}
		}
		for j, d := range g.Devices {
			if d < 0 {
				return fmt.Errorf("chaos.random[%d].devices[%d]: negative device index %d", i, j, d)
			}
		}
	}
	return nil
}

// runtimeKinds returns the resolved engine kinds in scenario order
// (defaulting to the paper's three headline runtimes).
func (s *Scenario) runtimeKinds() []core.RuntimeKind {
	if len(s.Runtimes) == 0 {
		return []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp}
	}
	out := make([]core.RuntimeKind, len(s.Runtimes))
	for i, rt := range s.Runtimes {
		out[i] = runtimeAliases[strings.ToLower(rt)]
	}
	return out
}

// ResultRuntimes returns the resolved runtime result names in scenario
// order (defaulting to the paper's three headline runtimes).
func (s *Scenario) ResultRuntimes() []string {
	kinds := s.runtimeKinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}
