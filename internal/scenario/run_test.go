package scenario

import (
	"strings"
	"testing"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/liger"
)

// TestRunOneLigerOverride pins that RunOptions.Liger reaches the Liger
// runtime in every mode: an invalid override fails each run.
func TestRunOneLigerOverride(t *testing.T) {
	const batch = `
model: tiny
runtimes: [liger]
workload:
  batches: 2
  rate: 10
`
	const fleet = batch + `
cluster:
  nodes: 2
`
	net, err := hw.NetworkPreset("ib")
	if err != nil {
		t.Fatal(err)
	}
	bad := liger.DefaultConfig("v100")
	bad.ContentionFactor = 0.5
	cases := []struct {
		name   string
		doc    string
		disagg *DisaggPools
	}{
		{"batch", batch, nil},
		{"fleet", fleet, nil},
		{"continuous", continuousYAML, nil},
		{"disagg", continuousYAML, &DisaggPools{Prefill: 1, Decode: 1, Network: net}},
	}
	for _, tc := range cases {
		sc, err := Parse([]byte(tc.doc), tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunOne(c, core.KindLiger, RunOptions{Disagg: tc.disagg}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, err = RunOne(c, core.KindLiger, RunOptions{Liger: &bad, Disagg: tc.disagg})
		if err == nil || !strings.Contains(err.Error(), "contention factor 0.5") {
			t.Errorf("%s: err = %v, want the override's contention factor rejected", tc.name, err)
		}
	}
}
