package liger

import (
	"slices"

	"liger/internal/simclock"
)

// SetFastForward turns the period fast-forward of s on (the default) or
// off. Off simulates every round: the oracle a fast-forwarding run must
// match.
func SetFastForward(s *Scheduler, on bool) {
	s.touch()
	s.ff.off = !on
	s.ff.reset()
	if !on {
		s.ff.release()
		s.node.TapeMark(-1)
	}
}

// RoundState is the state of a scheduler and its node at a round start:
// the round, the clock, the engine's next sequence number, the state's
// encoding and its kernels' names. Period is, at a round start a jump
// landed on, the primary batch's layers per period of that jump.
type RoundState struct {
	Round  int
	Now    simclock.Time
	Seq    uint64
	Enc    []uint64
	Tails  []string
	Layers []int
	Period int
}

// WatchRounds calls fn with the state of every round start s simulates,
// and of every one a jump lands on (landed). Only a jump's landing may
// be encoded while the fast-forward is on: an encoding in between would
// overwrite the detector's.
func WatchRounds(s *Scheduler, fn func(landed bool, st RoundState)) {
	s.ff.watch = func(landed bool, now simclock.Time) {
		if !landed && !s.ff.off {
			fn(false, RoundState{Round: s.stats.Rounds, Now: now})
			return
		}
		if s.ff.det == nil {
			s.ff.det = detectors.Get().(*ffDetector)
			s.ff.det.cand.round = -1
		}
		d := s.ff.det
		trig, _ := s.node.Engine().Firing()
		if _, ok := s.encode(now, trig); !ok {
			return
		}
		tails, layers, _ := d.w.Kernels()
		st := RoundState{Round: s.stats.Rounds, Now: now, Seq: s.node.Engine().Seq(),
			Enc: slices.Clone(d.enc.Words()), Tails: slices.Clone(tails), Layers: slices.Clone(layers)}
		if landed {
			st.Period = d.adv[0]
		}
		fn(landed, st)
	}
}
