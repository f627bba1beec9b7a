package gpusim

import "liger/internal/simclock"

// nopTracer ignores every record. The test tracers embed it and
// override the records they check.
type nopTracer struct{}

func (nopTracer) KernelSpan(KernelSpan)                             {}
func (nopTracer) KernelDep(KernelDep)                               {}
func (nopTracer) CollectiveEnqueue(int, int, int, simclock.Time)    {}
func (nopTracer) RendezvousBegin(int, int, int, int, simclock.Time) {}
func (nopTracer) TransferStart(int, simclock.Time)                  {}
func (nopTracer) CollectiveFinish(int, simclock.Time)               {}
func (nopTracer) CollectiveAbort(int, simclock.Time)                {}
func (nopTracer) RateChange(int, float64, float64, simclock.Time)   {}
func (nopTracer) DeviceFailed(int, simclock.Time)                   {}
func (nopTracer) RecoveryBegin(simclock.Time)                       {}
func (nopTracer) RecoveryEnd(simclock.Time)                         {}
func (nopTracer) QueueDepth(int, int, simclock.Time)                {}
