package scenario

import (
	"path/filepath"
	"testing"

	"liger/internal/core"
	"liger/internal/runtimes"
)

// TestClusterSynthesizesEachShapeOnce: the nodes of a fleet or of
// disaggregated pools share one record store, so each shape is
// synthesized once per world (liger.World), not once per node: the
// store holds every record its probe nodes synthesized and marks no
// shape, at 1 and 4 shards alike. On fleet-node-loss node 1 keeps a
// world of its own, unfolded under its slowdown; the spare replays the
// records of the dead node 0's world, which it shares. A store per node
// synthesizes 90 records there, and 103 on disagg-pools.
func TestClusterSynthesizesEachShapeOnce(t *testing.T) {
	for _, tc := range []struct {
		file string
		want int
	}{
		{"fleet-node-loss.yaml", 84},
		{"disagg-pools.yaml", 65},
	} {
		t.Run(tc.file, func(t *testing.T) {
			sc, err := Load(filepath.Join("..", "..", "scenarios", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 4} {
				out, err := RunOne(c, core.KindLiger, RunOptions{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				want := runtimes.RecordStats{Held: tc.want, Synthesized: tc.want}
				if out.records != want {
					t.Fatalf("%d shards: the store counts %+v, want %+v", shards, out.records, want)
				}
			}
		})
	}
}
