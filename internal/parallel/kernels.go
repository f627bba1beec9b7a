// Package parallel partitions a model's logical operator graph into
// per-device kernel sequences under the three parallelism approaches
// the paper compares (§4.1): Megatron-style intra-operator tensor
// parallelism, inter-operator pipeline parallelism, and the theoretical
// inter-operator variant built from partitioned kernels. The output is
// a list of fully-costed kernel descriptors that the runtimes launch
// onto the simulated node.
package parallel

import (
	"fmt"
	"time"

	"liger/internal/gpusim"
)

// KernelDesc is one kernel launch: its class, solo duration, resource
// demands for the contention engine, and (for decomposable kernels) a
// way to split it into finer-grained equal-capability pieces (§3.6).
type KernelDesc struct {
	Name  string
	Class gpusim.KernelClass
	// Duration is the solo execution time from the cost model.
	Duration time.Duration
	// ComputeDemand / MemBWDemand feed the simulator's contention
	// engine.
	ComputeDemand float64
	MemBWDemand   float64
	// Collective marks kernels that rendezvous across the
	// tensor-parallel group (all-reduce) or a stage pair (p2p).
	Collective bool
	// Bytes is the payload of communication kernels.
	Bytes int64

	// split produces parts equal-capability sub-kernels named after
	// name, or nil if the kernel is not decomposable. It takes the name
	// when called instead of capturing it, so one costed descriptor
	// serves every layer of a Plan.
	split func(name string, parts int) []KernelDesc
}

// CanSplit reports whether runtime kernel decomposition applies.
func (k KernelDesc) CanSplit() bool { return k.split != nil }

// Split decomposes the kernel into parts equal pieces. It returns
// ok=false when the kernel is indivisible or parts < 2.
func (k KernelDesc) Split(parts int) ([]KernelDesc, bool) {
	if k.split == nil || parts < 2 {
		return nil, false
	}
	return k.split(k.Name, parts), true
}

// SplitPrefix returns the first `take` of `parts` pieces and a
// remainder kernel representing the rest, used when the scheduler only
// needs a fraction of a lengthy kernel to fill an overlap window.
func (k KernelDesc) SplitPrefix(parts, take int) (head []KernelDesc, rest KernelDesc, ok bool) {
	if k.split == nil || parts < 2 || take <= 0 || take >= parts {
		return nil, KernelDesc{}, false
	}
	pieces := k.split(k.Name, parts)
	if len(pieces) != parts {
		return nil, KernelDesc{}, false
	}
	head = pieces[:take]
	// Merge the remaining pieces into one kernel to avoid needless
	// launches; its duration is the sum of the tail pieces.
	rest = pieces[take]
	for _, p := range pieces[take+1:] {
		rest.Duration += p.Duration
		rest.Bytes += p.Bytes
	}
	rest.Name = fmt.Sprintf("%s[rest%d/%d]", k.Name, parts-take, parts)
	// The merged remainder keeps the original split granularity.
	origSplit := k.split
	frac := float64(parts-take) / float64(parts)
	rest.split = func(name string, p int) []KernelDesc {
		// Re-split the remainder by splitting the original and scaling.
		out := origSplit(name, p)
		for i := range out {
			out[i].Duration = time.Duration(float64(out[i].Duration) * frac)
			out[i].Bytes = int64(float64(out[i].Bytes) * frac)
		}
		return out
	}
	return head, rest, true
}

// pieceName names piece i (from 0) of a parts-way split of name.
func pieceName(name string, i, parts int) string {
	return fmt.Sprintf("%s[%d/%d]", name, i+1, parts)
}

// TotalDurations sums solo durations by kernel class — the analytical
// totals behind Fig. 3's compute/communication shares.
func TotalDurations(kernels []KernelDesc) (compute, comm time.Duration) {
	for _, k := range kernels {
		if k.Class == gpusim.Comm {
			comm += k.Duration
		} else {
			compute += k.Duration
		}
	}
	return compute, comm
}

// CountClass returns how many kernels have the given class.
func CountClass(kernels []KernelDesc, class gpusim.KernelClass) int {
	n := 0
	for _, k := range kernels {
		if k.Class == class {
			n++
		}
	}
	return n
}
