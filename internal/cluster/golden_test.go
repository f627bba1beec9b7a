package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"liger/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDisaggGolden pins a traced disaggregated run byte for byte: the
// serve.Result JSON, every sequence's TTFT, TPOT and total latency, the
// KV handoff totals, then the merged serving trace in Chrome format.
// Each runtime has one golden that every worker count must reproduce.
func TestDisaggGolden(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		for _, workers := range []int{1, 4} {
			golden := filepath.Join("testdata", "disagg-"+kind.String()+".golden")
			t.Run(fmt.Sprintf("%s/workers=%d", kind, workers), func(t *testing.T) {
				cfg := disaggCfg(workers)
				cfg.Runtime = kind
				cfg.Trace = true
				d, err := NewDisagg(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Run()
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				b, err := json.MarshalIndent(res, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(b)
				var seqs struct{ TTFT, TPOT, Total []time.Duration }
				seqs.TTFT, seqs.TPOT, seqs.Total = sequences(t, d)
				if b, err = json.MarshalIndent(seqs, "", " "); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
				buf.Write(b)
				transfers, kvBytes := d.Handoffs()
				fmt.Fprintf(&buf, "\nhandoffs %d, %d bytes\n", transfers, kvBytes)
				if err := d.ServingTrace().WriteChromeTrace(&buf); err != nil {
					t.Fatal(err)
				}
				if *update && workers == 1 {
					if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("disagg output drifted from %s (%d bytes, want %d)", golden, buf.Len(), len(want))
				}
			})
		}
	}
}
