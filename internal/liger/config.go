package liger

import (
	"fmt"
	"strings"
	"time"
)

// SyncMode selects how the scheduler coordinates kernel execution order
// across streams (§3.4, Fig. 8).
type SyncMode int

const (
	// Hybrid pre-launches the next round while a kernel is still
	// running (CPU notified by a CUDA event recorded before the last
	// kernel of the primary subset) and gates execution order with
	// inter-stream events — precise control with the launch overhead
	// hidden.
	Hybrid SyncMode = iota
	// CPUGPU waits for every stream on every device to drain before the
	// CPU launches the next round, exposing the multi-GPU
	// synchronization and relaunch overhead (§4.5 measures it at well
	// over 20 µs per switch).
	CPUGPU
	// InterStreamOnly launches every schedulable round immediately,
	// relying purely on inter-stream events for ordering (the approach
	// §3.4 describes and rejects). Two failure modes emerge: flooding
	// the launch connections delays kernel delivery (the §2.3.1
	// execution lag), and batches that arrive after the pre-launch
	// cannot be interleaved into already-committed windows.
	InterStreamOnly
)

func (m SyncMode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case CPUGPU:
		return "cpu-gpu"
	case InterStreamOnly:
		return "inter-stream-only"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// Config tunes the scheduler.
type Config struct {
	// Sync selects the synchronization approach (§3.4).
	Sync SyncMode
	// ContentionFactor scales the durations of subsequent-batch kernels
	// during subset matching so the secondary subset never outlasts the
	// primary even under contention slowdown (§3.5). The paper uses 1.1
	// on the V100 node and 1.15 on the A100 node.
	ContentionFactor float64
	// DivisionFactor is the runtime kernel decomposition granularity
	// (§3.6, Fig. 14); the evaluation uses 8.
	DivisionFactor int
	// MaxInflight is the processing-list size: the primary batch plus
	// how many subsequent batches the scheduler interleaves.
	MaxInflight int
	// AdaptiveContention makes the scheduler learn the contention
	// factor online instead of using the profiled constant: whenever the
	// secondary subset outlasts the primary subset, the factor grows;
	// otherwise it decays toward 1. An extension beyond the paper's
	// offline profiling.
	AdaptiveContention bool
	// DegradationAware makes the scheduler poll modeled device-health
	// telemetry (the NVML/DCGM analogue exposed by the simulator) each
	// round and re-plan: with a degraded device the secondary budget
	// shrinks proportionally to the worst device health, and below
	// fallbackHealth the scheduler skips the secondary subset entirely —
	// falling back to non-interleaved execution so a crippled device is
	// not handed overlap work it cannot retire in the window.
	DegradationAware bool
}

// fallbackHealth is the worst-device health factor below which the
// degradation-aware scheduler abandons interleaving for the round.
const fallbackHealth = 0.5

// minOverlapWindow is the primary window below which the scheduler
// collects no secondary subset: too small to be worth the launch
// traffic.
const minOverlapWindow = 10 * time.Microsecond

// DefaultConfig returns the paper's evaluation settings for a node type
// (the V100 testbed uses contention factor 1.1, anything else 1.15, per
// §4.2). nodeName is a preset key ("v100") or a node's hw name, which
// hw.Node.WithGPUs suffixes with the device count
// ("v100x4-nvlink-2gpu").
func DefaultConfig(nodeName string) Config {
	cf := 1.15
	if nodeName == "v100" || strings.HasPrefix(nodeName, "v100x4-nvlink") {
		cf = 1.1
	}
	return Config{
		Sync:             Hybrid,
		ContentionFactor: cf,
		DivisionFactor:   8,
		MaxInflight:      4,
	}
}

// Validate reports nonsensical settings.
func (c Config) Validate() error {
	switch {
	case c.ContentionFactor < 1:
		return fmt.Errorf("liger: contention factor %v < 1 would let the secondary subset overrun the primary", c.ContentionFactor)
	case c.DivisionFactor < 1:
		return fmt.Errorf("liger: division factor %d", c.DivisionFactor)
	case c.MaxInflight < 1:
		return fmt.Errorf("liger: processing list size %d", c.MaxInflight)
	}
	return nil
}
