package runtimes

import (
	"liger/internal/gpusim"
	"liger/internal/liger"
	"liger/internal/model"
)

// SetReplay turns iteration replay on r on (the default) or off. Off
// simulates every iteration: the oracle a replaying run must match.
func SetReplay(r *Liger, on bool) { r.off = !on }

// Replays reports how many iterations r answered from a record.
func Replays(r *Liger) int { return r.replays }

// CatchUps reports how many of r's replays were caught up and simulated
// after all.
func CatchUps(r *Liger) int { return r.catchUps }

// Node returns r's node.
func Node(r *Liger) *gpusim.Node { return r.node }

// Store returns the record store r shares.
func Store(r *Liger) *Records { return r.records }

// Record returns the record r's store holds for shape w in r's world,
// nil when it holds none, and the world of the store it is filed under.
// It assembles a batch of w to read it, so it takes a batch id.
func Record(r *Liger, w model.Workload) (*liger.Replay, liger.World) {
	b, err := r.assembler.Assemble(w)
	if err != nil {
		return nil, liger.World{}
	}
	defer r.assembler.Release(b)
	rec, _ := r.assembler.Replay(b, r.currentWorld())
	for _, k := range r.records.worlds {
		if got, _ := r.assembler.Replay(b, k.key); rec != nil && got == rec {
			return rec, k.key
		}
	}
	return rec, liger.World{}
}

// ProbeFastForwarded counts the periods the probe schedulers of r's
// record store skipped (liger.Stats.FastForwarded), over its worlds.
func ProbeFastForwarded(r *Liger) int {
	n := 0
	for _, w := range r.records.worlds {
		if w.probe != nil {
			n += w.probe.sched.Stats().FastForwarded
		}
	}
	return n
}
