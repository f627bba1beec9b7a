package runtimes

import (
	"fmt"
	"time"

	"liger/internal/gpusim"
	"liger/internal/model"
	"liger/internal/nccl"
	"liger/internal/simclock"
)

// failover is the reconfiguration state machine shared by the three
// runtimes. The sequence every runtime follows on a permanent device
// failure is:
//
//  1. begin: mark reconfiguring (serve defers arrivals and suppresses
//     retries from here on) and bump the epoch so work of the failed
//     world can be told apart from work of the new one.
//  2. The runtime discards the failed epoch (queued work completes as
//     failed, in-flight work drains through the cancellation cascade).
//  3. afterQuiesce: once drained, pay the modeled recovery delay —
//     communicator rebuild over the survivor ring plus the weight
//     re-shard transfer over the surviving links.
//  4. reshard: grow each survivor's weight shard to the new world
//     size (failure here means the survivors cannot host the model:
//     the failover is impossible and everything fails fast).
//  5. finish: clear reconfiguring, account downtime, and flush the
//     serving layer's deferred arrivals via the subscribers.
type failover struct {
	node *gpusim.Node
	comm *nccl.Comm
	spec model.Spec

	reconfiguring bool
	// epoch increments per failure; stale post-drain timers check it so
	// a second failure during recovery supersedes the first.
	epoch int
	// world is the device count the weights are currently sharded over.
	world    int
	failures int
	downtime time.Duration
	failedAt simclock.Time
	// impossible is set when reshard cannot fit the model on the
	// survivors; the runtime then fails every submission immediately.
	impossible bool

	onReconfigured []func(now simclock.Time)
}

func newFailover(node *gpusim.Node, comm *nccl.Comm, spec model.Spec) *failover {
	return &failover{node: node, comm: comm, spec: spec, world: node.NumDevices()}
}

func (f *failover) begin(now simclock.Time) {
	f.epoch++
	f.failures++
	if !f.reconfiguring {
		f.reconfiguring = true
		f.failedAt = now
		if tr := f.node.Tracer(); tr != nil {
			tr.RecoveryBegin(now)
		}
	}
}

// recoveryDelay models what a real elastic runtime pays between drain
// and resume: ncclCommAbort + communicator bootstrap over the survivor
// set, then moving the grown weight shard onto each survivor across
// the surviving links.
func (f *failover) recoveryDelay() time.Duration {
	alive := f.node.NumAlive()
	d := f.comm.RebuildCost(alive)
	if alive >= 1 && alive < f.world {
		grow := f.spec.WeightBytes()/int64(alive) - f.spec.WeightBytes()/int64(f.world)
		d += f.comm.P2P(grow)
	}
	return d
}

// afterQuiesce schedules fn once the recovery delay has elapsed. A
// newer failure epoch cancels the stale resume.
func (f *failover) afterQuiesce(fn func(now simclock.Time)) {
	epoch := f.epoch
	f.node.Engine().After(f.recoveryDelay(), func(now simclock.Time) {
		if epoch != f.epoch {
			return
		}
		fn(now)
	})
}

// reshard grows each survivor's weight shard from 1/world to 1/alive
// of the model. On failure (the survivors cannot host the model) the
// failover is marked impossible and device memory is left rolled back.
func (f *failover) reshard() error {
	alive := f.node.NumAlive()
	if alive < 1 {
		f.impossible = true
		return fmt.Errorf("runtimes: no surviving devices")
	}
	grow := f.spec.WeightBytes()/int64(alive) - f.spec.WeightBytes()/int64(f.world)
	if grow > 0 {
		if err := f.node.AllocAll(grow); err != nil {
			f.impossible = true
			return fmt.Errorf("runtimes: re-shard onto %d survivors: %w", alive, err)
		}
	}
	f.world = alive
	return nil
}

// finishReconfig completes the failover: downtime accounts the span
// from the (first) failure to now, and subscribers — the serving
// layer's deferred-arrival flush — fire at the resume instant.
func (f *failover) finishReconfig(now simclock.Time) {
	f.reconfiguring = false
	f.downtime += time.Duration(now - f.failedAt)
	if tr := f.node.Tracer(); tr != nil {
		tr.RecoveryEnd(now)
	}
	for _, fn := range f.onReconfigured {
		fn(now)
	}
}

// Reconfiguring implements Elastic.
func (f *failover) Reconfiguring() bool {
	f.touch()
	return f.reconfiguring
}

// OnReconfigured implements Elastic.
func (f *failover) OnReconfigured(fn func(now simclock.Time)) {
	f.touch()
	f.onReconfigured = append(f.onReconfigured, fn)
}

// FailoverStats implements Elastic.
func (f *failover) FailoverStats() (int, time.Duration) {
	f.touch()
	return f.failures, f.downtime
}

// touch catches up a replay deferred on the node's engine (see
// replayer), so no reading of the failover state passes a skipped
// simulation.
func (f *failover) touch() { f.node.Engine().Touch() }
