package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimalYAML is the smallest valid scenario; tests splice mutations in.
const minimalYAML = `
name: t
workload:
  batches: 10
  rate: 0.5x
`

func TestParseMinimal(t *testing.T) {
	sc, err := Parse([]byte(minimalYAML), "fallback")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" {
		t.Errorf("name = %q", sc.Name)
	}
	if got := sc.ResultRuntimes(); len(got) != 3 || got[0] != "Liger" {
		t.Errorf("default runtimes = %v", got)
	}
}

func TestParseDefaultName(t *testing.T) {
	sc, err := Parse([]byte("workload:\n  batches: 5\n  rate: 1\n"), "from-file")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "from-file" {
		t.Errorf("name = %q, want fallback", sc.Name)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{
			"unknown top-level key with suggestion",
			"name: t\nworkloda:\n  batches: 5\n  rate: 1\nworkload:\n  batches: 5\n  rate: 1\n",
			`unknown key "workloda" (did you mean "workload"?)`,
		},
		{
			"unknown nested key with suggestion",
			"name: t\nworkload:\n  batchs: 5\n  rate: 1\n",
			`unknown key "workload.batchs" (did you mean "batches"?)`,
		},
		{
			"missing workload",
			"name: t\n",
			`missing required section "workload"`,
		},
		{
			"batches and duration both set",
			"name: t\nworkload:\n  batches: 5\n  duration: 2s\n  rate: 1\n",
			"mutually exclusive",
		},
		{
			"missing rate",
			"name: t\nworkload:\n  batches: 5\n",
			"workload.rate: required",
		},
		{
			"bare number time",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\npolicy:\n  deadline: 42\n",
			"bare number 42",
		},
		{
			"unknown process",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\n  process: weekly\n",
			`unknown process "weekly"`,
		},
		{
			"unknown fault kind",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nchaos:\n  events:\n    - kind: meltdown\n      device: 0\n",
			`chaos.events[0]: unknown kind "meltdown"`,
		},
		{
			"duplicate device-fail",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nchaos:\n  events:\n    - kind: device-fail\n      device: 1\n      start: 10%\n    - kind: device-fail\n      device: 1\n      start: 50%\n",
			"chaos.events[1] fails device 1 twice (first failed by chaos.events[0])",
		},
		{
			"retries without backoff",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\npolicy:\n  retries: 2\n",
			"retries without a backoff",
		},
		{
			"bad assertion",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nassert:\n  - liger.goodput\n",
			"assert[0]: no comparison operator",
		},
		{
			"unknown liger sync mode",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nliger:\n  sync: eager\n",
			`liger.sync: unknown sync mode "eager" (want hybrid, cpu-gpu or inter-stream-only)`,
		},
		{
			"pools combined with replicas",
			"name: t\ncluster:\n  nodes: 2\n  prefill: 1\n  decode: 1\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n",
			"cluster.prefill/decode: disaggregated pools take no nodes, spares or probe_interval",
		},
		{
			"pools combined with a probe interval",
			"name: t\ncluster:\n  prefill: 1\n  decode: 1\n  probe_interval: 5ms\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n",
			"cluster.prefill/decode: disaggregated pools take no nodes, spares or probe_interval",
		},
		{
			"one pool empty",
			"name: t\ncluster:\n  prefill: 2\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n",
			"cluster.prefill/decode: need at least one node in each pool, got 2 prefill / 0 decode",
		},
		{
			"pools without continuous mode",
			"name: t\ncluster:\n  prefill: 1\n  decode: 1\nworkload:\n  batches: 5\n  rate: 1\n",
			"cluster.prefill/decode: disaggregated pools serve workload.mode: continuous",
		},
		{
			"arrivals in continuous mode",
			"name: t\nworkload:\n  mode: continuous\n  batches: 5\n  rate: 1\n  arrivals: a.json\n",
			"workload.arrivals: continuous mode draws its own poisson arrivals",
		},
		{
			"duplicate device override",
			"name: t\nworkload:\n  batches: 5\n  rate: 1\nnode:\n  devices:\n    - device: 0\n      speed: 0.5\n    - device: 0\n      link: 0.5\n",
			"node.devices[1]: device 0 already overridden by node.devices[0]",
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

func TestTimeSpecParsing(t *testing.T) {
	horizon, solo := 10*time.Second, 20*time.Millisecond
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"12ms", 12 * time.Millisecond},
		{"1.5s", 1500 * time.Millisecond},
		{"30%", 3 * time.Second},
		{"4x", 80 * time.Millisecond},
		{"0.5x", 10 * time.Millisecond},
	}
	for _, tc := range cases {
		ts, err := parseTimeSpecString(tc.in, "test")
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if got := ts.Resolve(horizon, solo); got != tc.want {
			t.Errorf("%q resolves to %v, want %v", tc.in, got, tc.want)
		}
		if ts.String() != tc.in {
			t.Errorf("%q round-trips as %q", tc.in, ts.String())
		}
	}
	for _, bad := range []string{"12", "fast", "-3s", "-10%"} {
		if _, err := parseTimeSpecString(bad, "test"); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

func TestRateSpecParsing(t *testing.T) {
	rs, err := parseRateSpec("0.8x", "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Resolve(100); got != 80 {
		t.Errorf("0.8x of 100 = %v", got)
	}
	rs, err = parseRateSpec(12.5, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Resolve(100); got != 12.5 {
		t.Errorf("absolute rate = %v", got)
	}
	for _, bad := range []any{"fast", -1.0, "0x"} {
		if _, err := parseRateSpec(bad, "test"); err == nil {
			t.Errorf("%v: want error", bad)
		}
	}
}
