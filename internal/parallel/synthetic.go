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
// from the compiler split by their cost models; this idealized split
// isolates scheduler behaviour from decomposition overhead in tests.
func (k KernelDesc) WithEqualSplit() KernelDesc {
	k.split = splitEqual
	return k
}
