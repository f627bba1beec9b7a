package liger

import (
	"fmt"
	"io"
	"slices"
	"time"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// RoundRecord captures one scheduling round's decisions — which batch
// was primary, the window, what was interleaved and from whom — for
// debugging and for understanding why a workload does or does not
// overlap.
type RoundRecord struct {
	Round   int
	At      simclock.Time
	Primary int
	Class   gpusim.KernelClass
	Window  time.Duration
	// PrimaryKernels / SecondaryKernels count the two subsets.
	PrimaryKernels   int
	SecondaryKernels int
	// Donors lists the batch IDs whose kernels filled the window.
	Donors []int
	// Decomposed reports whether runtime kernel decomposition fired.
	Decomposed bool
}

// String renders one journal line.
func (r RoundRecord) String() string {
	return fmt.Sprintf("round %5d @%-14v primary=b%-4d %-7v window=%-10v subset0=%d subset1=%d donors=%v decomp=%v",
		r.Round, time.Duration(r.At), r.Primary, r.Class, r.Window,
		r.PrimaryKernels, r.SecondaryKernels, r.Donors, r.Decomposed)
}

// EnableJournal starts recording round decisions, keeping at most cap
// records (oldest dropped): a cap below the records kept trims them to
// the newest cap. Zero cap disables.
func (s *Scheduler) EnableJournal(cap int) {
	s.touch()
	s.journalCap = cap
	if cap <= 0 {
		s.journal = nil
	} else if n := len(s.journal); n > cap {
		s.journal = slices.Delete(s.journal, 0, n-cap)
	}
}

// Journal returns the recorded rounds, oldest first.
func (s *Scheduler) Journal() []RoundRecord {
	s.touch()
	return s.journal
}

// WriteJournal dumps the journal to w.
func (s *Scheduler) WriteJournal(w io.Writer) error {
	s.touch()
	for _, r := range s.journal {
		if _, err := fmt.Fprintln(w, r); err != nil {
			return err
		}
	}
	return nil
}

// record appends to the bounded journal.
func (s *Scheduler) record(r RoundRecord) {
	if s.journalCap <= 0 {
		return
	}
	if len(s.journal) >= s.journalCap {
		copy(s.journal, s.journal[1:])
		s.journal = s.journal[:len(s.journal)-1]
	}
	s.journal = append(s.journal, r)
}
