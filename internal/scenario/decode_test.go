package scenario

import (
	"strings"
	"testing"
)

// wl is a valid workload section; decode cases splice one defect
// around it so each document carries exactly one error.
const wl = "workload:\n  batches: 5\n  rate: 1\n"

// decodeErrorCases pins the decoder's error text byte for byte: one
// single-defect document per error site (type mismatch per kind,
// unknown keys with and without a suggestion, the custom spellings,
// element errors, section order).
var decodeErrorCases = []struct{ name, in, want string }{
	{"top-level sequence", "- a\n- b\n", ": want a mapping, got a sequence"},
	{"string from sequence", "name: [1, 2]\n" + wl, "name: want a string, got a sequence"},
	{"string from number", "description: 5\n" + wl, "description: want a string, got a number"},
	{"string from bool", "model: true\n" + wl, "model: want a string, got a bool"},
	{"string from mapping", "name:\n  a: 1\n" + wl, "name: want a string, got a mapping"},
	{"runtimes not a sequence", "runtimes: liger\n" + wl, "runtimes: want a sequence, got a string"},
	{"runtimes element", "runtimes: [liger, 3]\n" + wl, "runtimes[1]: want a runtime name, got a number"},
	{"runtimes null element", "runtimes: [liger, null]\n" + wl, "runtimes[1]: want a runtime name, got null"},
	{"node not a mapping", "node: v100\n" + wl, "node: want a mapping, got a string"},
	{"integer from fraction", "node:\n  gpus: 2.5\n" + wl, "node.gpus: want an integer, got 2.5 (a number)"},
	{"integer from string", "node:\n  gpus: four\n" + wl, `node.gpus: want an integer, got "four"`},
	{"integer from bool", "node:\n  gpus: true\n" + wl, "node.gpus: want an integer, got true (a bool)"},
	{"integer from sequence", "node:\n  gpus: [1, 2]\n" + wl, "node.gpus: want an integer, got [1 2] (a sequence)"},
	{"devices not a sequence", "node:\n  devices: 3\n" + wl, "node.devices: want a sequence, got a number"},
	{"device not a mapping", "node:\n  devices: [x]\n" + wl, "node.devices[0]: want a mapping, got a string"},
	{"number from string", "node:\n  devices:\n    - device: 0\n      speed: fast\n" + wl, `node.devices[0].speed: want a number, got "fast"`},
	{"number from bool", "node:\n  devices:\n    - device: 0\n      link: false\n" + wl, "node.devices[0].link: want a number, got false (a bool)"},
	{"device unknown key", "node:\n  devices:\n    - device: 0\n      sped: 0.5\n" + wl, `unknown key "node.devices[0].sped" (did you mean "speed"?)`},
	{"node unknown key", "node:\n  gpu: 2\n" + wl, `unknown key "node.gpu" (did you mean "gpus"?)`},
	{"unknown key without suggestion", "zzzzzz: 1\n" + wl, `unknown key "zzzzzz"`},
	{"first unknown key in sort order", "zeta: 1\nalpha: 2\n" + wl, `unknown key "alpha"`},
	{"cluster not a mapping", "cluster: [1]\n" + wl, "cluster: want a mapping, got a sequence"},
	{"cluster string from number", "cluster:\n  network: 5\n" + wl, "cluster.network: want a string, got a number"},
	{"time from bool", "cluster:\n  nodes: 2\n  probe_interval: true\n" + wl, "cluster.probe_interval: want a time value, got bool"},
	{"time bad duration", "cluster:\n  nodes: 2\n  probe_interval: soon\n" + wl, `cluster.probe_interval: bad duration "soon" (want e.g. "12ms", "30%", or "4x")`},
	{"missing workload", "name: t\n", `missing required section "workload"`},
	{"null workload", "name: t\nworkload:\n", `missing required section "workload"`},
	{"workload not a mapping", "workload: 5\n", "workload: want a mapping, got a number"},
	{"workload duration relative", "workload:\n  duration: 30%\n  rate: 1\n", `workload.duration: want an absolute duration, got "30%"`},
	{"workload duration bare number", "workload:\n  duration: 3\n  rate: 1\n", `workload.duration: bare number 3 — use a unit ("12ms"), a horizon fraction ("30%"), or solo multiples ("4x")`},
	{"rate negative", "workload:\n  batches: 5\n  rate: -1\n", "workload.rate: rate must be positive, got -1"},
	{"rate bad relative", "workload:\n  batches: 5\n  rate: fastx\n", `workload.rate: bad capacity-relative rate "fastx"`},
	{"rate bad string", "workload:\n  batches: 5\n  rate: fast\n", `workload.rate: bad rate "fast" (want batches/s or "0.8x")`},
	{"rate from sequence", "workload:\n  batches: 5\n  rate: [1]\n", "workload.rate: want a rate, got []interface {}"},
	{"rate from bool", "workload:\n  batches: 5\n  rate: true\n", "workload.rate: want a rate, got bool"},
	{"seq wrong length", wl + "  seq: [16]\n", "workload.seq: want [min, max], got 1 elements"},
	{"seq non-integer element", wl + "  seq: [16, x]\n", "workload.seq: want two integers, got [16 x]"},
	{"seq mapping non-integer", wl + "  seq:\n    min: 1.5\n    max: 8\n", "workload.seq.min: want an integer, got 1.5 (a number)"},
	{"seq mapping unknown key", wl + "  seq:\n    mn: 1\n    max: 8\n", `unknown key "workload.seq.mn" (did you mean "min"?)`},
	{"seq from string", wl + "  seq: wide\n", "workload.seq: want [min, max], got a string"},
	{"workload seed fraction", wl + "  seed: 1.5\n", "workload.seed: want an integer, got 1.5 (a number)"},
	{"workload unknown key", "workload:\n  batchs: 5\n  rate: 1\n", `unknown key "workload.batchs" (did you mean "batches"?)`},
	{"liger not a mapping", wl + "liger: fast\n", "liger: want a mapping, got a string"},
	{"liger sync from number", wl + "liger:\n  sync: 1\n", "liger.sync: want a string, got a number"},
	{"liger integer from fraction", wl + "liger:\n  division_factor: 2.5\n", "liger.division_factor: want an integer, got 2.5 (a number)"},
	{"liger unknown key", wl + "liger:\n  inflght: 2\n", `unknown key "liger.inflght" (did you mean "inflight"?)`},
	{"cluster pool from string", "cluster:\n  prefill: two\n" + wl, `cluster.prefill: want an integer, got "two"`},
	{"arrivals from number", wl + "  arrivals: 5\n", "workload.arrivals: want a string, got a number"},
	{"kv not a mapping", wl + "kv: 1\n", "kv: want a mapping, got a number"},
	{"kv number from string", wl + "kv:\n  watermark: high\n", `kv.watermark: want a number, got "high"`},
	{"policy not a mapping", wl + "policy: x\n", "policy: want a mapping, got a string"},
	{"policy bad duration", wl + "policy:\n  deadline: 10q\n", `policy.deadline: bad duration "10q" (want e.g. "12ms", "30%", or "4x")`},
	{"policy integer from string", wl + "policy:\n  retries: x\n", `policy.retries: want an integer, got "x"`},
	{"policy bad solo multiple", wl + "policy:\n  hedge: -1x\n", `policy.hedge: bad solo multiple "-1x"`},
	{"policy bad horizon fraction", wl + "policy:\n  backoff: a%\n", `policy.backoff: bad horizon fraction "a%"`},
	{"chaos not a mapping", wl + "chaos: 1\n", "chaos: want a mapping, got a number"},
	{"chaos events not a sequence", wl + "chaos:\n  events: x\n", "chaos.events: want a sequence, got a string"},
	{"chaos event not a mapping", wl + "chaos:\n  events: [5]\n", "chaos.events[0]: want a mapping, got a number"},
	{"chaos event kind", wl + "chaos:\n  events:\n    - kind: 5\n", "chaos.events[0].kind: want a string, got a number"},
	{"chaos event device", wl + "chaos:\n  events:\n    - kind: slowdown\n      device: x\n", `chaos.events[0].device: want an integer, got "x"`},
	{"chaos event bare start", wl + "chaos:\n  events:\n    - kind: slowdown\n      start: 42\n", `chaos.events[0].start: bare number 42 — use a unit ("12ms"), a horizon fraction ("30%"), or solo multiples ("4x")`},
	{"chaos event unknown key", wl + "chaos:\n  events:\n    - kind: slowdown\n      nod: 1\n", `unknown key "chaos.events[0].nod" (did you mean "node"?)`},
	{"chaos random not a sequence", wl + "chaos:\n  random: x\n", "chaos.random: want a sequence, got a string"},
	{"chaos random not a mapping", wl + "chaos:\n  random: [x]\n", "chaos.random[0]: want a mapping, got a string"},
	{"window bare number", wl + "chaos:\n  random:\n    - kind: slowdown\n      window: 5\n", "chaos.random[0].window: want [lo, hi]"},
	{"window wrong length", wl + "chaos:\n  random:\n    - kind: slowdown\n      window: [10%]\n", "chaos.random[0].window: want [lo, hi]"},
	{"window element bare number", wl + "chaos:\n  random:\n    - kind: slowdown\n      window: [10%, 42]\n", `chaos.random[0].window[1]: bare number 42 — use a unit ("12ms"), a horizon fraction ("30%"), or solo multiples ("4x")`},
	{"random devices not a sequence", wl + "chaos:\n  random:\n    - kind: slowdown\n      devices: 3\n", "chaos.random[0].devices: want a sequence, got a number"},
	{"random devices element", wl + "chaos:\n  random:\n    - kind: slowdown\n      devices: [1, x]\n", `chaos.random[0].devices[1]: want an integer, got "x"`},
	{"random devices fraction", wl + "chaos:\n  random:\n    - kind: slowdown\n      devices: [0.5]\n", "chaos.random[0].devices[0]: want an integer, got 0.5 (a number)"},
	{"random seed fraction", wl + "chaos:\n  random:\n    - kind: slowdown\n      seed: 1.5\n", "chaos.random[0].seed: want an integer, got 1.5 (a number)"},
	{"random factor string", wl + "chaos:\n  random:\n    - kind: slowdown\n      factor: x\n", `chaos.random[0].factor: want a number, got "x"`},
	{"random unknown key", wl + "chaos:\n  random:\n    - kind: slowdown\n      cont: 2\n", `unknown key "chaos.random[0].cont" (did you mean "count"?)`},
	{"assert not a sequence", wl + "assert: x\n", "assert: want a sequence, got a string"},
	{"assert element", wl + "assert: [1]\n", "assert[0]: want an expression string, got a number"},
	{"earlier section first", "node:\n  gpu: 2\nworkload:\n  batches: x\n  rate: 1\n", `unknown key "node.gpu" (did you mean "gpus"?)`},
	{"type error before unknown key", "bogus: 1\nnode:\n  gpus: x\n" + wl, `node.gpus: want an integer, got "x"`},
	{"json integer from string", `{"workload": {"batches": "5", "rate": 1}}`, `workload.batches: want an integer, got "5"`},
	{"json node from sequence", `{"workload": {"batches": 5, "rate": 1}, "node": []}`, "node: want a mapping, got a sequence"},
	{"json integer from mapping", `{"workload": {"batches": {"a": 1}, "rate": 1}}`, "workload.batches: want an integer, got map[a:1] (a mapping)"},
	{"json time from mapping", `{"workload": {"batches": 5, "rate": 1}, "policy": {"deadline": {"a": 1}}}`, "policy.deadline: want a time value, got map[string]interface {}"},
	{"json unknown key", `{"workload": {"batches": 5, "rate": 1}, "nmae": "x"}`, `unknown key "nmae" (did you mean "name"?)`},
}

func TestDecodeErrors(t *testing.T) {
	for _, tc := range decodeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), "t")
			got := "<nil>"
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("err = %s\nwant  %s", got, tc.want)
			}
		})
	}
}

// The YAML front end reads plain nan/inf/infinity as float64; every
// number path rejects them at load rather than letting a NaN rate
// panic the scheduler or an infinite one run a zero-length horizon.
func TestDecodeRejectsNonFinite(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"rate nan", "workload:\n  batches: 5\n  rate: nan\n", "workload.rate: rate must be positive, got NaN"},
		{"rate inf", "workload:\n  batches: 5\n  rate: inf\n", "workload.rate: rate must be finite, got +Inf"},
		{"rate infinity", "workload:\n  batches: 5\n  rate: infinity\n", "workload.rate: rate must be finite, got +Inf"},
		{"rate -inf", "workload:\n  batches: 5\n  rate: -inf\n", "workload.rate: rate must be positive, got -Inf"},
		{"rate nanx", "workload:\n  batches: 5\n  rate: nanx\n", `workload.rate: bad capacity-relative rate "nanx"`},
		{"rate infx", "workload:\n  batches: 5\n  rate: infx\n", `workload.rate: bad capacity-relative rate "infx"`},
		{"rate quoted inf", "workload:\n  batches: 5\n  rate: \"inf\"\n", `workload.rate: bad rate "inf" (want batches/s or "0.8x")`},
		{"factor nan", wl + "chaos:\n  events:\n    - kind: slowdown\n      factor: nan\n", "chaos.events[0].factor: want a finite number, got NaN (a number)"},
		{"speed nan", wl + "node:\n  devices:\n    - device: 0\n      speed: nan\n", "node.devices[0].speed: want a finite number, got NaN (a number)"},
		{"link inf", wl + "node:\n  devices:\n    - device: 0\n      link: inf\n", "node.devices[0].link: want a finite number, got +Inf (a number)"},
		{"watermark nan", "workload:\n  batches: 5\n  rate: 1\n  mode: continuous\nkv:\n  watermark: nan\n", "kv.watermark: want a finite number, got NaN (a number)"},
		{"solo multiple nanx", wl + "policy:\n  deadline: nanx\n", `policy.deadline: bad solo multiple "nanx"`},
		{"horizon fraction inf%", wl + "chaos:\n  events:\n    - kind: slowdown\n      factor: 0.5\n      start: inf%\n", `chaos.events[0].start: bad horizon fraction "inf%"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), "t")
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v\nwant  %s", err, tc.want)
			}
		})
	}
}

// Integers travel as float64; a whole value outside the int64 range
// must fail to load, not wrap to math.MinInt64.
func TestDecodeRejectsOversizedIntegers(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"seed", wl + "  seed: 1e19\n", "workload.seed: want an integer, got 1e+19 (a number)"},
		{"gpus", "node:\n  gpus: 1e19\n" + wl, "node.gpus: want an integer, got 1e+19 (a number)"},
		{"negative", "node:\n  gpus: -1e19\n" + wl, "node.gpus: want an integer, got -1e+19 (a number)"},
		{"two to the 63", "node:\n  gpus: 9223372036854775808\n" + wl, "node.gpus: want an integer, got 9.223372036854776e+18 (a number)"},
		{"infinite", "node:\n  gpus: inf\n" + wl, "node.gpus: want an integer, got +Inf (a number)"},
		{"seq element", wl + "  seq: [16, 1e19]\n", "workload.seq: want two integers, got [16 1e+19]"},
		{"devices element", wl + "chaos:\n  random:\n    - kind: slowdown\n      devices: [1e19]\n", "chaos.random[0].devices[0]: want an integer, got 1e+19 (a number)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), "t")
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v\nwant  %s", err, tc.want)
			}
		})
	}
	sc, err := Parse([]byte(wl+"  seed: -9e18\n"), "t")
	if err != nil || sc.Workload.Seed != -9e18 {
		t.Errorf("seed -9e18: %v, %v", sc, err)
	}
}

// A finite capacity-relative rate can still overflow once multiplied
// by the node's capacity; Compile rejects the infinite result.
func TestCompileRejectsInfiniteRate(t *testing.T) {
	for _, mode := range []string{"", "  mode: continuous\n"} {
		sc, err := Parse([]byte("model: tiny\nworkload:\n  batches: 5\n  rate: 1e308x\n"+mode), "t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(sc); err == nil || !strings.Contains(err.Error(), "workload.rate: resolves to +Inf") {
			t.Errorf("mode %q: err = %v", mode, err)
		}
	}
}
