package runtimes

// SetReplay turns iteration replay on r on (the default) or off. Off
// simulates every iteration: the oracle a replaying run must match.
func SetReplay(r *Liger, on bool) { r.off = !on }

// Replays reports how many iterations r answered from a record.
func Replays(r *Liger) int { return r.replays }

// CatchUps reports how many of r's replays were caught up and simulated
// after all.
func CatchUps(r *Liger) int { return r.catchUps }
