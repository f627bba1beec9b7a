package runtimes

import (
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

// Synthesized reports how many records r synthesized on its probe node.
func Synthesized(r *Liger) int { return r.synthesized }

// ProbeFallbacks reports how many shapes r marked because their probes
// did not extend to a record.
func ProbeFallbacks(r *Liger) int { return r.fallbacks }

// Reprobes reports how many shapes r probed again with the lead apart,
// because the probe node that folds the lead diverged.
func Reprobes(r *Liger) int { return r.reprobes }

// Record returns the record r holds for shape w, nil when it holds
// none. It assembles a batch of w to read it, so it takes a batch id.
func Record(r *Liger, w model.Workload) *liger.Replay {
	b, err := r.assembler.Assemble(w)
	if err != nil {
		return nil
	}
	defer r.assembler.Release(b)
	return b.Replay()
}
