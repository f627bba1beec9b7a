package liger

import (
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/simclock"
)

// degradedRun serves two interleavable batches with device 1 degraded
// by setup and returns the final stats.
func degradedRun(t *testing.T, cfg Config, setup func(*gpusim.Node)) Stats {
	t.Helper()
	eng, node, s := testRig(t, cfg)
	if setup != nil {
		setup(node)
	}
	eng.After(0, func(simclock.Time) {
		s.Submit(syntheticBatch(0, 8, 3, 60*time.Microsecond, 60*time.Microsecond))
		s.Submit(syntheticBatch(1, 8, 3, 60*time.Microsecond, 60*time.Microsecond))
	})
	eng.Run()
	return s.Stats()
}

func slowDevice(speed float64) func(*gpusim.Node) {
	return func(n *gpusim.Node) { n.Device(1).SetSpeed(speed) }
}

func degradeLink(f float64) func(*gpusim.Node) {
	return func(n *gpusim.Node) { n.Device(1).SetLinkFactor(f) }
}

func TestDegradationFallbackSkipsSecondary(t *testing.T) {
	cfg := testCfg()
	cfg.DegradationAware = true
	st := degradedRun(t, cfg, slowDevice(0.3)) // below the 0.5 default threshold
	if st.SecondaryKernels != 0 {
		t.Fatalf("interleaved %d kernels onto a crippled device", st.SecondaryKernels)
	}
	if st.DegradedFallbacks == 0 {
		t.Fatal("no fallback rounds counted")
	}
	if st.DegradedRebalances != 0 {
		t.Fatalf("rebalanced %d rounds below the fallback threshold", st.DegradedRebalances)
	}
	if st.BatchesDone != 2 {
		t.Fatalf("completed %d of 2 batches", st.BatchesDone)
	}
}

func TestDegradationRebalanceShrinksCommBudget(t *testing.T) {
	cfg := testCfg()
	cfg.DegradationAware = true
	healthy := degradedRun(t, cfg, nil)
	mild := degradedRun(t, cfg, degradeLink(0.7)) // degraded link above the threshold
	if healthy.DegradedFallbacks != 0 || healthy.DegradedRebalances != 0 {
		t.Fatalf("healthy run counted degradation: %+v", healthy)
	}
	if mild.DegradedRebalances == 0 {
		t.Fatal("no rebalanced rounds with a mildly degraded link")
	}
	if mild.DegradedFallbacks != 0 {
		t.Fatalf("fell back %d rounds above the threshold", mild.DegradedFallbacks)
	}
	if mild.SecondaryKernels == 0 {
		t.Fatal("rebalancing killed interleaving entirely")
	}
	if mild.SecondaryKernels > healthy.SecondaryKernels {
		t.Fatalf("shrunk budget interleaved more (%d) than full budget (%d)",
			mild.SecondaryKernels, healthy.SecondaryKernels)
	}
}

func TestDegradationIgnoresUniformSlowdown(t *testing.T) {
	// A speed slowdown above the fallback threshold stretches the
	// primary and secondary subsets alike, so re-planning must leave the
	// interleaving ratio untouched — shedding overlap here measurably
	// hurts goodput.
	cfg := testCfg()
	cfg.DegradationAware = true
	st := degradedRun(t, cfg, slowDevice(0.7))
	if st.DegradedFallbacks != 0 || st.DegradedRebalances != 0 {
		t.Fatalf("reacted to a uniform slowdown above the threshold: %+v", st)
	}
	if st.SecondaryKernels == 0 {
		t.Fatal("stopped interleaving under a mild uniform slowdown")
	}
}

func TestDegradationDetectsLinkHealth(t *testing.T) {
	// The health probe is min(speed, link factor): a severely degraded
	// link alone must trigger the fallback.
	cfg := testCfg()
	cfg.DegradationAware = true
	st := degradedRun(t, cfg, degradeLink(0.2))
	if st.SecondaryKernels != 0 || st.DegradedFallbacks == 0 {
		t.Fatalf("link degradation not detected: %+v", st)
	}
}

func TestDegradationAwareOffIgnoresHealth(t *testing.T) {
	st := degradedRun(t, testCfg(), slowDevice(0.3))
	if st.DegradedFallbacks != 0 || st.DegradedRebalances != 0 {
		t.Fatalf("degradation counters moved with the feature off: %+v", st)
	}
	if st.SecondaryKernels == 0 {
		t.Fatal("plain scheduler stopped interleaving")
	}
}

// TestFallbackHealthThreshold pins the fixed 0.5 threshold: a device
// just below it makes a degradation-aware run fall back, one at 0.7
// keeps it interleaving.
func TestFallbackHealthThreshold(t *testing.T) {
	cfg := testCfg()
	cfg.DegradationAware = true
	if st := degradedRun(t, cfg, slowDevice(0.49)); st.SecondaryKernels != 0 || st.DegradedFallbacks == 0 {
		t.Fatalf("no fallback just below the threshold: %+v", st)
	}
	if st := degradedRun(t, cfg, slowDevice(0.7)); st.SecondaryKernels == 0 || st.DegradedFallbacks != 0 {
		t.Fatalf("fell back above the threshold: %+v", st)
	}
}
