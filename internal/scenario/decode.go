package scenario

import (
	"fmt"
	"math"
	"sort"
)

// Strict decoding of the generic parse tree into Scenario. Every
// mapping checks its key set: an unknown key is an error that names
// the full dotted path and suggests the nearest valid key, so a typo'd
// scenario fails loudly at load instead of silently dropping a fault.

// section wraps one mapping with its dotted path for error reporting.
type section struct {
	path  string
	m     map[string]any
	used  map[string]bool
	valid []string
}

func asSection(v any, path string) (*section, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: want a mapping, got %s", path, typeName(v))
	}
	return &section{path: path, m: m, used: make(map[string]bool)}, nil
}

func typeName(v any) string {
	switch v.(type) {
	case map[string]any:
		return "a mapping"
	case []any:
		return "a sequence"
	case string:
		return "a string"
	case float64:
		return "a number"
	case bool:
		return "a bool"
	case nil:
		return "null"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// get marks a key used and returns its value.
func (s *section) get(key string) (any, bool) {
	v, ok := s.m[key]
	if ok {
		s.used[key] = true
	}
	return v, ok
}

func (s *section) child(key string) string {
	if s.path == "" {
		return key
	}
	return s.path + "." + key
}

// finish errors on any unconsumed (unknown) key, with a suggestion.
func (s *section) finish() error {
	var unknown []string
	for k := range s.m {
		if !s.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	msg := fmt.Sprintf("unknown key %q", s.child(unknown[0]))
	if hint := nearest(unknown[0], s.valid); hint != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", hint)
	}
	return fmt.Errorf("%s", msg)
}

// expect declares the section's valid keys (for typo suggestions).
func (s *section) expect(keys ...string) { s.valid = keys }

// nearest returns the valid key with the smallest edit distance, when
// that distance is small enough to be a plausible typo.
func nearest(got string, valid []string) string {
	best, bestDist := "", 3
	for _, k := range valid {
		if d := editDistance(got, k); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func (s *section) str(key string) (string, error) {
	v, ok := s.get(key)
	if !ok || v == nil {
		return "", nil
	}
	out, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("%s: want a string, got %s", s.child(key), typeName(v))
	}
	return out, nil
}

func (s *section) integer(key string) (int, error) {
	v, ok := s.get(key)
	if !ok || v == nil {
		return 0, nil
	}
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		return 0, fmt.Errorf("%s: want an integer, got %s", s.child(key), renderScalar(v))
	}
	return int(f), nil
}

func (s *section) number(key string) (float64, error) {
	v, ok := s.get(key)
	if !ok || v == nil {
		return 0, nil
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("%s: want a number, got %s", s.child(key), renderScalar(v))
	}
	return f, nil
}

func (s *section) timeSpec(key string) (TimeSpec, error) {
	v, ok := s.get(key)
	if !ok || v == nil {
		return TimeSpec{}, nil
	}
	return parseTimeSpec(v, s.child(key))
}

func (s *section) seq(key string) ([]any, error) {
	v, ok := s.get(key)
	if !ok || v == nil {
		return nil, nil
	}
	out, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("%s: want a sequence, got %s", s.child(key), typeName(v))
	}
	return out, nil
}

func renderScalar(v any) string {
	if s, ok := v.(string); ok {
		return fmt.Sprintf("%q", s)
	}
	return fmt.Sprintf("%v (%s)", v, typeName(v))
}

func decodeScenario(doc any) (*Scenario, error) {
	top, err := asSection(doc, "")
	if err != nil {
		return nil, err
	}
	top.expect("name", "description", "model", "runtimes", "node", "cluster", "workload", "kv", "policy", "chaos", "assert")
	sc := &Scenario{}
	if sc.Name, err = top.str("name"); err != nil {
		return nil, err
	}
	if sc.Description, err = top.str("description"); err != nil {
		return nil, err
	}
	if sc.Model, err = top.str("model"); err != nil {
		return nil, err
	}
	if rts, err := top.seq("runtimes"); err != nil {
		return nil, err
	} else {
		for i, v := range rts {
			name, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("runtimes[%d]: want a runtime name, got %s", i, typeName(v))
			}
			sc.Runtimes = append(sc.Runtimes, name)
		}
	}
	if v, ok := top.get("node"); ok && v != nil {
		if sc.Node, err = decodeNode(v); err != nil {
			return nil, err
		}
	}
	if v, ok := top.get("cluster"); ok && v != nil {
		cl, err := decodeCluster(v)
		if err != nil {
			return nil, err
		}
		sc.Cluster = &cl
	}
	if v, ok := top.get("workload"); ok && v != nil {
		if sc.Workload, err = decodeWorkload(v); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("missing required section \"workload\"")
	}
	if v, ok := top.get("kv"); ok && v != nil {
		kv, err := decodeKV(v)
		if err != nil {
			return nil, err
		}
		sc.KV = &kv
	}
	if v, ok := top.get("policy"); ok && v != nil {
		if sc.Policy, err = decodePolicy(v); err != nil {
			return nil, err
		}
	}
	if v, ok := top.get("chaos"); ok && v != nil {
		if sc.Chaos, err = decodeChaos(v); err != nil {
			return nil, err
		}
	}
	if exprs, err := top.seq("assert"); err != nil {
		return nil, err
	} else {
		for i, v := range exprs {
			expr, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("assert[%d]: want an expression string, got %s", i, typeName(v))
			}
			sc.Assert = append(sc.Assert, expr)
		}
	}
	return sc, top.finish()
}

func decodeNode(v any) (NodeSpec, error) {
	s, err := asSection(v, "node")
	if err != nil {
		return NodeSpec{}, err
	}
	s.expect("preset", "gpus", "devices")
	var n NodeSpec
	if n.Preset, err = s.str("preset"); err != nil {
		return n, err
	}
	if n.GPUs, err = s.integer("gpus"); err != nil {
		return n, err
	}
	devs, err := s.seq("devices")
	if err != nil {
		return n, err
	}
	for i, dv := range devs {
		ds, err := asSection(dv, fmt.Sprintf("node.devices[%d]", i))
		if err != nil {
			return n, err
		}
		ds.expect("device", "speed", "link")
		var d DeviceOverride
		if d.Device, err = ds.integer("device"); err != nil {
			return n, err
		}
		if d.Speed, err = ds.number("speed"); err != nil {
			return n, err
		}
		if d.Link, err = ds.number("link"); err != nil {
			return n, err
		}
		if err := ds.finish(); err != nil {
			return n, err
		}
		n.Devices = append(n.Devices, d)
	}
	return n, s.finish()
}

func decodeCluster(v any) (ClusterSpec, error) {
	s, err := asSection(v, "cluster")
	if err != nil {
		return ClusterSpec{}, err
	}
	s.expect("nodes", "spares", "network", "probe_interval")
	var c ClusterSpec
	if c.Nodes, err = s.integer("nodes"); err != nil {
		return c, err
	}
	if c.Spares, err = s.integer("spares"); err != nil {
		return c, err
	}
	if c.Network, err = s.str("network"); err != nil {
		return c, err
	}
	if c.Probe, err = s.timeSpec("probe_interval"); err != nil {
		return c, err
	}
	return c, s.finish()
}

func decodeWorkload(v any) (Workload, error) {
	s, err := asSection(v, "workload")
	if err != nil {
		return Workload{}, err
	}
	s.expect("batches", "duration", "batch", "rate", "process", "seq", "phase", "ctx", "mode", "prompt", "gen", "pool", "seed")
	var w Workload
	if w.Batches, err = s.integer("batches"); err != nil {
		return w, err
	}
	if ts, err := s.timeSpec("duration"); err != nil {
		return w, err
	} else if !ts.IsZero() {
		if ts.kind != timeAbs {
			return w, fmt.Errorf("workload.duration: want an absolute duration, got %q", ts)
		}
		w.Duration = ts.abs
	}
	if w.Batch, err = s.integer("batch"); err != nil {
		return w, err
	}
	if rv, ok := s.get("rate"); ok && rv != nil {
		if w.Rate, err = parseRateSpec(rv, "workload.rate"); err != nil {
			return w, err
		}
	}
	if w.Process, err = s.str("process"); err != nil {
		return w, err
	}
	if sv, ok := s.get("seq"); ok && sv != nil {
		if w.MinSeq, w.MaxSeq, err = decodeSeqRange(sv); err != nil {
			return w, err
		}
	}
	if w.Phase, err = s.str("phase"); err != nil {
		return w, err
	}
	if w.CtxLen, err = s.integer("ctx"); err != nil {
		return w, err
	}
	if w.Mode, err = s.str("mode"); err != nil {
		return w, err
	}
	if w.Prompt, err = s.integer("prompt"); err != nil {
		return w, err
	}
	if w.Gen, err = s.integer("gen"); err != nil {
		return w, err
	}
	if w.Pool, err = s.integer("pool"); err != nil {
		return w, err
	}
	seed, err := s.integer("seed")
	if err != nil {
		return w, err
	}
	w.Seed = int64(seed)
	return w, s.finish()
}

// decodeSeqRange accepts `seq: [16, 128]` or a {min, max} mapping.
func decodeSeqRange(v any) (int, int, error) {
	switch sv := v.(type) {
	case []any:
		if len(sv) != 2 {
			return 0, 0, fmt.Errorf("workload.seq: want [min, max], got %d elements", len(sv))
		}
		lo, ok1 := sv[0].(float64)
		hi, ok2 := sv[1].(float64)
		if !ok1 || !ok2 || lo != math.Trunc(lo) || hi != math.Trunc(hi) {
			return 0, 0, fmt.Errorf("workload.seq: want two integers, got %v", sv)
		}
		return int(lo), int(hi), nil
	case map[string]any:
		s, _ := asSection(v, "workload.seq")
		s.expect("min", "max")
		lo, err := s.integer("min")
		if err != nil {
			return 0, 0, err
		}
		hi, err := s.integer("max")
		if err != nil {
			return 0, 0, err
		}
		return lo, hi, s.finish()
	default:
		return 0, 0, fmt.Errorf("workload.seq: want [min, max], got %s", typeName(v))
	}
}

func decodeKV(v any) (KVSpec, error) {
	s, err := asSection(v, "kv")
	if err != nil {
		return KVSpec{}, err
	}
	s.expect("block", "watermark")
	var k KVSpec
	if k.Block, err = s.integer("block"); err != nil {
		return k, err
	}
	if k.Watermark, err = s.number("watermark"); err != nil {
		return k, err
	}
	return k, s.finish()
}

func decodePolicy(v any) (PolicySpec, error) {
	s, err := asSection(v, "policy")
	if err != nil {
		return PolicySpec{}, err
	}
	s.expect("deadline", "retries", "backoff", "backoff_cap", "queue_limit", "hedge")
	var p PolicySpec
	if p.Deadline, err = s.timeSpec("deadline"); err != nil {
		return p, err
	}
	if p.Retries, err = s.integer("retries"); err != nil {
		return p, err
	}
	if p.Backoff, err = s.timeSpec("backoff"); err != nil {
		return p, err
	}
	if p.BackoffCap, err = s.timeSpec("backoff_cap"); err != nil {
		return p, err
	}
	if p.QueueLimit, err = s.integer("queue_limit"); err != nil {
		return p, err
	}
	if p.Hedge, err = s.timeSpec("hedge"); err != nil {
		return p, err
	}
	return p, s.finish()
}

func decodeChaos(v any) (Chaos, error) {
	s, err := asSection(v, "chaos")
	if err != nil {
		return Chaos{}, err
	}
	s.expect("coll_timeout", "events", "random")
	var c Chaos
	if c.CollTimeout, err = s.timeSpec("coll_timeout"); err != nil {
		return c, err
	}
	events, err := s.seq("events")
	if err != nil {
		return c, err
	}
	for i, ev := range events {
		path := fmt.Sprintf("chaos.events[%d]", i)
		es, err := asSection(ev, path)
		if err != nil {
			return c, err
		}
		es.expect("kind", "node", "device", "start", "duration", "factor")
		var e ChaosEvent
		if e.Kind, err = es.str("kind"); err != nil {
			return c, err
		}
		if e.Node, err = es.integer("node"); err != nil {
			return c, err
		}
		if e.Device, err = es.integer("device"); err != nil {
			return c, err
		}
		if e.Start, err = es.timeSpec("start"); err != nil {
			return c, err
		}
		if e.Duration, err = es.timeSpec("duration"); err != nil {
			return c, err
		}
		if e.Factor, err = es.number("factor"); err != nil {
			return c, err
		}
		if err := es.finish(); err != nil {
			return c, err
		}
		c.Events = append(c.Events, e)
	}
	gens, err := s.seq("random")
	if err != nil {
		return c, err
	}
	for i, gv := range gens {
		path := fmt.Sprintf("chaos.random[%d]", i)
		gs, err := asSection(gv, path)
		if err != nil {
			return c, err
		}
		gs.expect("kind", "count", "window", "duration", "factor", "devices", "seed")
		var g RandomChaos
		if g.Kind, err = gs.str("kind"); err != nil {
			return c, err
		}
		if g.Count, err = gs.integer("count"); err != nil {
			return c, err
		}
		if wv, ok := gs.get("window"); ok && wv != nil {
			wseq, ok := wv.([]any)
			if !ok || len(wseq) != 2 {
				return c, fmt.Errorf("%s.window: want [lo, hi]", path)
			}
			if g.Window[0], err = parseTimeSpec(wseq[0], path+".window[0]"); err != nil {
				return c, err
			}
			if g.Window[1], err = parseTimeSpec(wseq[1], path+".window[1]"); err != nil {
				return c, err
			}
		}
		if g.Duration, err = gs.timeSpec("duration"); err != nil {
			return c, err
		}
		if g.Factor, err = gs.number("factor"); err != nil {
			return c, err
		}
		if devs, err := gs.seq("devices"); err != nil {
			return c, err
		} else {
			for j, dv := range devs {
				f, ok := dv.(float64)
				if !ok || f != math.Trunc(f) {
					return c, fmt.Errorf("%s.devices[%d]: want an integer, got %s", path, j, renderScalar(dv))
				}
				g.Devices = append(g.Devices, int(f))
			}
		}
		seed, err := gs.integer("seed")
		if err != nil {
			return c, err
		}
		g.Seed = int64(seed)
		if err := gs.finish(); err != nil {
			return c, err
		}
		c.Random = append(c.Random, g)
	}
	return c, s.finish()
}
