package simclock

import (
	"testing"
	"time"
)

// BenchmarkEngineStep measures the steady-state cost of one
// fire→reschedule cycle: every fired event schedules its successor, so
// the queue population stays constant. This is the dominant pattern in
// the GPU simulator (kernel completions re-arming completions) and the
// benchmark that guards the free-list: allocs/op should be zero once
// fired items are recycled.
func BenchmarkEngineStep(b *testing.B) {
	e := New()
	var fn Event
	fn = func(now Time) {
		e.At(now+time.Microsecond, fn)
	}
	for i := 0; i < 64; i++ {
		e.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineCancelReschedule mimics Device.setKernelRate: a
// standing population of events is repeatedly cancelled and re-timed.
// It exercises both the free-list (cancelled items must be reclaimed)
// and heap compaction (cancelled entries may briefly dominate the
// queue).
func BenchmarkEngineCancelReschedule(b *testing.B) {
	e := New()
	const population = 128
	handles := make([]Handle, population)
	for i := range handles {
		handles[i] = e.At(Time(1000+i)*time.Microsecond, func(Time) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % population
		handles[j].Cancel()
		handles[j] = e.At(Time(2000+i%1000)*time.Microsecond, func(Time) {})
	}
}

// BenchmarkStepWithFarArrivals is the serving pattern: 16
// self-rescheduling events (the kernel steady state) fire among 1,000
// arrivals scheduled up front in time order, far beyond the kernels'
// horizon. The last arrival schedules the next 1,000, so the queue holds
// the same mix at every step.
func BenchmarkStepWithFarArrivals(b *testing.B) {
	e := New()
	var fn, arrive, last Event
	fn = func(now Time) {
		e.At(now+time.Microsecond, fn)
	}
	arrive = func(Time) {}
	last = func(now Time) {
		for i := 1; i <= 1000; i++ {
			f := arrive
			if i == 1000 {
				f = last
			}
			e.At(now+Time(i)*100*time.Microsecond, f)
		}
	}
	for i := 0; i < 16; i++ {
		e.At(Time(i), fn)
	}
	last(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
