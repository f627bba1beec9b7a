package bench

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/scenario"
)

// TestSweepSerialParallelIdentical is the determinism regression test
// for the sweep executor: the same seed through the serial path
// (Parallel: 0) and the parallel path (Parallel: 4) must yield
// identical serve.Result metrics for every point of every sweep.
func TestSweepSerialParallelIdentical(t *testing.T) {
	sweeps := []panelSweep{
		{
			p:     panel{nodeKey: "v100", node: hw.V100Node(), spec: model.Tiny(), batch: 2, phase: model.Context},
			rates: []float64{200, 400, 800},
			kinds: []core.RuntimeKind{core.KindLiger, core.KindIntraOp, core.KindInterOp},
		},
		{
			p:     panel{nodeKey: "a100", node: hw.A100Node(), spec: model.Tiny(), batch: 4, phase: model.Context},
			rates: []float64{300, 600},
			kinds: []core.RuntimeKind{core.KindLiger, core.KindIntraOp},
		},
	}
	serialCfg := RunConfig{Batches: 30, Quick: true, Seed: 9, Parallel: 0}
	parallelCfg := serialCfg
	parallelCfg.Parallel = 4

	serial, err := runSweeps(sweeps, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runSweeps(sweeps, parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("serial and parallel sweeps diverged:\nserial:   %+v\nparallel: %+v", serial, par)
	}
	// Sanity: the comparison is over real work, not empty maps.
	if len(serial) != 2 || len(serial[0][core.KindLiger]) != 3 {
		t.Fatalf("unexpected sweep shape: %+v", serial)
	}
}

// TestExperimentOutputSerialParallelIdentical runs a full experiment
// driver (printing included) both ways and requires byte-identical
// output — the property the -parallel flag promises.
func TestExperimentOutputSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run; skipped with -short")
	}
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 3, Parallel: 0}
	var serial, par bytes.Buffer
	if err := RunFig12(cfg, &serial); err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	if err := RunFig12(cfg, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), par.Bytes()) {
		t.Fatalf("fig12 output differs between -parallel 0 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
}

// TestBatchesPropagates pins the RunConfig.Batches contract: a tiny
// batch count must reach every simulation point, so a quick fig10 run
// with Batches: 3 finishes in seconds rather than minutes.
func TestBatchesPropagates(t *testing.T) {
	cfg := RunConfig{Batches: 3, Quick: true, Seed: 1}
	start := time.Now()
	var buf bytes.Buffer
	if err := RunFig10(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("fig10 with Batches:3 took %v; Batches is not propagating", elapsed)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	// And the point runner really serves exactly cfg.Batches batches.
	p := panel{nodeKey: "v100", node: hw.V100Node(), spec: model.Tiny(), batch: 2, phase: model.Context}
	res, err := runPoint(p, 500, core.KindLiger, cfg, scenario.LigerSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 3 {
		t.Fatalf("runPoint completed %d batches with Batches:3", res.Completed)
	}
}
