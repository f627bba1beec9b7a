package liger

import (
	"strings"
	"testing"
	"time"

	"liger/internal/simclock"
)

func TestJournalRecordsRounds(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	s.EnableJournal(1000)
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 4, 2, 50*time.Microsecond, 30*time.Microsecond))
		s.Submit(syntheticBatch(1, 4, 2, 50*time.Microsecond, 30*time.Microsecond))
	})
	eng.Run()
	j := s.Journal()
	if len(j) != s.Stats().Rounds {
		t.Fatalf("journal has %d records, %d rounds ran", len(j), s.Stats().Rounds)
	}
	// First round: batch 0 primary, compute window of two kernels.
	if j[0].Primary != 0 || j[0].PrimaryKernels != 2 || j[0].Window != 100*time.Microsecond {
		t.Fatalf("first record %+v", j[0])
	}
	// Some round must have batch 1 as donor.
	found := false
	for _, r := range j {
		for _, d := range r.Donors {
			if d == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no round recorded batch 1 as donor")
	}
}

func TestJournalBounded(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	s.EnableJournal(5)
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 10, 2, 20*time.Microsecond, 20*time.Microsecond))
	})
	eng.Run()
	j := s.Journal()
	if len(j) != 5 {
		t.Fatalf("bounded journal has %d records", len(j))
	}
	// Must hold the MOST RECENT rounds.
	if j[len(j)-1].Round != s.Stats().Rounds {
		t.Fatalf("last record is round %d of %d", j[len(j)-1].Round, s.Stats().Rounds)
	}
}

// Lowering the cap below the records kept trims the journal to the
// newest cap records, and it stays bounded by the new cap.
func TestJournalCapLowered(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	s.EnableJournal(10)
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 10, 2, 20*time.Microsecond, 20*time.Microsecond))
	})
	eng.RunUntil(200 * time.Microsecond)
	before := append([]RoundRecord(nil), s.Journal()...)
	if len(before) < 5 {
		t.Fatalf("journal holds %d records before the cap is lowered, want at least 5", len(before))
	}
	s.EnableJournal(3)
	if j := s.Journal(); len(j) != 3 || j[0].Round != before[len(before)-3].Round || j[2].Round != before[len(before)-1].Round {
		t.Fatalf("journal after lowering the cap to 3: %d records from round %d; want the newest 3 of %d", len(j), j[0].Round, len(before))
	}
	eng.Run()
	if j := s.Journal(); len(j) != 3 || j[2].Round != s.Stats().Rounds {
		t.Fatalf("journal holds %d records ending at round %d of %d; want the newest 3", len(j), j[len(j)-1].Round, s.Stats().Rounds)
	}
}

func TestJournalDisabledByDefault(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 2, 2, 20*time.Microsecond, 20*time.Microsecond))
	})
	eng.Run()
	if len(s.Journal()) != 0 {
		t.Fatal("journal recorded without EnableJournal")
	}
}

func TestWriteJournal(t *testing.T) {
	eng, _, s := testRig(t, testCfg())
	s.EnableJournal(100)
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 2, 2, 20*time.Microsecond, 20*time.Microsecond))
	})
	eng.Run()
	var sb strings.Builder
	if err := s.WriteJournal(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "primary=b0") || !strings.Contains(out, "compute") {
		t.Fatalf("journal output missing fields:\n%s", out)
	}
}
