// Package runtimes provides the execution engines the paper compares
// (§4.1): the intra-operator baseline (Megatron-style tensor
// parallelism), the inter-operator baseline (GPipe-style pipeline), the
// theoretical inter-operator variant, and an adapter exposing the Liger
// scheduler behind the same interface. The serving layer drives any of
// them interchangeably.
package runtimes

import (
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
)

// Completion reports one finished batch. Failed marks a batch whose
// execution was torn down by fault injection (a collective of the batch
// hit the watchdog and aborted): its kernels completed in the CUDA
// sense but the result is garbage, and the serving layer decides
// whether to retry.
type Completion struct {
	// ID numbers the runtime's batches in submit order from 0. A submit
	// that returns an error takes no ID.
	ID        int
	Workload  model.Workload
	Submitted simclock.Time
	Done      simclock.Time
	Failed    bool
	// Req is the serving-layer request id the batch was submitted under
	// (SubmitReq), or -1 for untagged Submit calls.
	Req int
}

// Latency is the batch's pending + execution time (the paper's latency
// metric).
func (c Completion) Latency() simclock.Time { return c.Done - c.Submitted }

// Runtime executes batched inferences on a simulated node. Submit must
// be called from inside the simulation (an engine callback): the batch
// arrives at the current virtual time.
type Runtime interface {
	Name() string
	Submit(w model.Workload) error
	SetOnDone(func(Completion))
}

// Tagged is implemented by runtimes whose submissions carry a
// serving-layer request id down to kernel launches, so traces and
// metrics can decompose per-request latency. Submit(w) is equivalent
// to SubmitReq(w, -1).
type Tagged interface {
	SubmitReq(w model.Workload, req int) error
}

// Elastic is implemented by runtimes that survive permanent device
// failure by re-planning onto the survivors. The serving layer uses it
// for recovery-aware overload protection: while Reconfiguring reports
// true, arrivals are deferred and retries suppressed so the retry
// budget is spent against the new world, not the dead one.
type Elastic interface {
	// Reconfiguring reports whether a failover is in progress (failure
	// detected, old epoch draining or the new plan not yet live).
	Reconfiguring() bool
	// OnReconfigured registers a callback fired at the sim instant a
	// reconfiguration completes and the runtime serves again.
	OnReconfigured(fn func(now simclock.Time))
	// FailoverStats reports completed device-failure recoveries and the
	// total sim time spent reconfiguring (time-to-recover, summed).
	FailoverStats() (failovers int, downtime time.Duration)
}
