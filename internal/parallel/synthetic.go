package parallel

import (
	"time"

	"liger/internal/gpusim"
)

// SyntheticKernel builds a KernelDesc directly, for scheduler tests and
// microbenchmarks that need precise control over durations and demands.
func SyntheticKernel(name string, class gpusim.KernelClass, dur time.Duration, compute, membw float64, collective bool) KernelDesc {
	return KernelDesc{
		Name:          name,
		Class:         class,
		Duration:      dur,
		ComputeDemand: compute,
		MemBWDemand:   membw,
		Collective:    collective,
	}
}

// WithEqualSplit returns a copy of k that decomposes into exactly-equal
// pieces (duration and bytes divided evenly, no overhead). Real kernels
// from the compiler carry cost-model splitters; this idealized splitter
// isolates scheduler behaviour from decomposition overhead in tests.
func (k KernelDesc) WithEqualSplit() KernelDesc {
	base := k
	base.piece = nil
	out := k
	out.piece = func(_, parts int) KernelDesc {
		p := base
		p.Duration = base.Duration / time.Duration(parts)
		p.Bytes = base.Bytes / int64(parts)
		return p
	}
	return out
}
