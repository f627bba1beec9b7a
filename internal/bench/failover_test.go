package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"liger/internal/core"
)

// TestFailoverOutputSerialParallelIdentical pins the failover sweep's
// determinism promise: table AND JSON artifact are byte-identical
// across invocations and across sweep-executor worker counts.
func TestFailoverOutputSerialParallelIdentical(t *testing.T) {
	dirSerial, dirPar := t.TempDir(), t.TempDir()
	cfg := RunConfig{Batches: 25, Quick: true, Seed: 5, Parallel: 0, JSONDir: dirSerial}
	var first, again, par bytes.Buffer
	if err := RunFailover(cfg, &first); err != nil {
		t.Fatal(err)
	}
	if err := RunFailover(cfg, &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatal("two seeded failover runs differ")
	}
	cfg.Parallel = 4
	cfg.JSONDir = dirPar
	if err := RunFailover(cfg, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), par.Bytes()) {
		t.Fatalf("failover output differs between -parallel 0 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			first.String(), par.String())
	}
	js1, err := os.ReadFile(filepath.Join(dirSerial, FailoverJSONName))
	if err != nil {
		t.Fatal(err)
	}
	js2, err := os.ReadFile(filepath.Join(dirPar, FailoverJSONName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Fatal("BENCH_failover.json differs between -parallel 0 and -parallel 4")
	}
	out := first.String()
	for _, want := range []string{"none", "dev0@", "Liger", "Intra-Op", "Inter-Op", "headline"} {
		if !strings.Contains(out, want) {
			t.Errorf("%q missing from the report:\n%s", want, out)
		}
	}
}

// TestFailoverLigerRetainsMoreGoodputThanIntraOp is the tentpole
// acceptance check: across a permanent device failure, the interleaved
// runtime must retain strictly more goodput than the intra-operator
// baseline — its pending work rides out the drain better and it
// restarts into interleaved rounds on the survivors.
func TestFailoverLigerRetainsMoreGoodputThanIntraOp(t *testing.T) {
	cfg := RunConfig{Batches: 40, Seed: 1}
	retained := func(kind core.RuntimeKind) float64 {
		t.Helper()
		base, err := serveScenario(failoverScenario(failoverPoint{kind: kind, dev: -1}, cfg), kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		failed, err := serveScenario(failoverScenario(failoverPoint{kind: kind, dev: 1, atFrac: 0.45}, cfg), kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if failed.Failovers != 1 {
			t.Fatalf("%v: %d failovers, want 1", kind, failed.Failovers)
		}
		if failed.RecoveryTime <= 0 {
			t.Fatalf("%v: no time-to-recover reported", kind)
		}
		if base.PolicyGoodput() <= 0 {
			t.Fatalf("%v: baseline goodput %v", kind, base.PolicyGoodput())
		}
		return failed.PolicyGoodput() / base.PolicyGoodput()
	}
	lig := retained(core.KindLiger)
	intra := retained(core.KindIntraOp)
	if lig <= intra {
		t.Fatalf("Liger retained %.3f of its goodput, Intra-Op %.3f — want strictly more", lig, intra)
	}
}
