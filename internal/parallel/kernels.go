// Package parallel partitions a model's logical operator graph into
// per-device kernel sequences under the three parallelism approaches
// the paper compares (§4.1): Megatron-style intra-operator tensor
// parallelism, inter-operator pipeline parallelism, and the theoretical
// inter-operator variant built from partitioned kernels. The output is
// one Plan type for all three: a layer-periodic sequence of
// fully-costed kernel descriptors that the runtimes launch onto the
// simulated node. A tensor-parallel rank runs a plan whole; a pipeline
// stage runs a contiguous span of it (Plan.StageSpan).
package parallel

import (
	"fmt"
	"time"

	"liger/internal/costmodel"
	"liger/internal/gpusim"
	"liger/internal/nccl"
)

// KernelDesc is one kernel launch: its class, solo duration, resource
// demands for the contention engine, and (for decomposable kernels) how
// to split it into finer-grained equal-capability pieces (§3.6). The
// split is described by value, so a descriptor holds no closure.
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

	// split is how runtime decomposition divides the kernel, indivisible
	// if it does not; gemm holds a GEMM split's m, n and k. They pack
	// into the word beside Collective: every context shape and every
	// decode batch size stores 14–15 descriptors (Plan), so each word a
	// descriptor grows shows in the memory every workload allocates
	// (TestKernelDescSize).
	split splitKind
	gemm  [3]int32

	// Bytes is the payload of communication kernels.
	Bytes int64

	// costs prices the pieces of a GEMM or all-reduce split: the cost
	// models of the compiler that built the kernel, which every one of
	// its descriptors shares.
	costs *costModels
}

// splitKind selects how a kernel's pieces are costed.
type splitKind uint8

const (
	indivisible splitKind = iota
	// splitColumns divides a GEMM's output columns (SplitVertical).
	splitColumns
	// splitRows divides a GEMM's activation rows (SplitHorizontal).
	splitRows
	// splitChunks divides an all-reduce's payload into chunks, each
	// paying the collective latency again.
	splitChunks
	// splitEqual divides duration and bytes evenly (WithEqualSplit).
	splitEqual
)

// costModels prices a compiler's kernels and their pieces.
type costModels struct {
	cm   *costmodel.Model
	comm *nccl.Comm
}

// CanSplit reports whether runtime kernel decomposition applies.
func (k KernelDesc) CanSplit() bool { return k.split != indivisible }

// Remainder is a kernel under runtime decomposition, by value: Root, the
// descriptor the first split cut, and Scales, the share of it each split
// so far left, in split order. Its pieces are Root's, scaled by each
// level in turn; with no scales it is Root whole. Root is read-only, as
// a plan's descriptors are shared; Scales is the caller's, which appends
// each split's scale to it.
type Remainder struct {
	Root   *KernelDesc
	Scales []float64
}

// cost returns the duration and bytes of piece i of a parts-way split.
// The scales apply one at a time, each truncating to whole nanoseconds
// and bytes; their product would round differently.
func (r Remainder) cost(i, parts int) (d time.Duration, b int64) {
	k := r.Root
	switch k.split {
	case splitColumns, splitRows:
		m, n, kk := int(k.gemm[0]), int(k.gemm[1]), int(k.gemm[2])
		splitDim := n
		if k.split == splitRows {
			splitDim = m
		}
		size := splitDim / parts
		if i < splitDim%parts {
			size++
		}
		if k.split == splitRows {
			m = size
		} else {
			n = size
		}
		d = k.costs.cm.GEMM(m, n, kk)
	case splitChunks:
		b = k.Bytes / int64(parts)
		if int64(i) < k.Bytes%int64(parts) {
			b++
		}
		d = k.costs.comm.AllReduceChunk(k.Bytes, b)
	case splitEqual:
		d, b = k.Duration/time.Duration(parts), k.Bytes/int64(parts)
	}
	for _, f := range r.Scales {
		d = time.Duration(float64(d) * f)
		b = int64(float64(b) * f)
	}
	return d, b
}

// piece returns piece i of a parts-way split, unnamed and indivisible.
func (r Remainder) piece(i, parts int) KernelDesc {
	k := r.Root
	p := KernelDesc{
		Class:         k.Class,
		ComputeDemand: k.ComputeDemand,
		MemBWDemand:   k.MemBWDemand,
		Collective:    k.Collective,
	}
	p.Duration, p.Bytes = r.cost(i, parts)
	return p
}

// FittingPieces returns how many leading pieces of a parts-way split
// fit within budget together, at most parts-1 (a kernel that fits whole
// needs no split); 0 when the kernel is indivisible, parts < 2 or not
// even the first piece fits. It costs the pieces without building them.
func (r Remainder) FittingPieces(parts int, budget time.Duration) int {
	if !r.Root.CanSplit() || parts < 2 {
		return 0
	}
	var acc time.Duration
	for i := 0; i < parts-1; i++ {
		d, _ := r.cost(i, parts)
		if acc += d; acc > budget {
			return i
		}
	}
	return parts - 1
}

// Splitter performs runtime decomposition (§3.6) without allocating in
// steady state. It owns the buffer SplitPrefix writes head pieces into,
// which Reset recycles every scheduling round, and it interns the names
// of pieces and remainders, filling lazily as kernels split, as a
// compiler's per-layer names do. The zero value is ready to use; a
// Splitter is not safe for concurrent use.
type Splitter struct {
	buf []KernelDesc
	// names[{name, parts}] holds the names of a parts-way split of name:
	// piece i at i, the remainder after take head pieces at parts+take.
	names map[splitKey][]string
}

type splitKey struct {
	name  string
	parts int
}

// Reset empties the buffer for reuse: the descriptors SplitPrefix and
// Hold returned before are overwritten by later calls.
func (s *Splitter) Reset() {
	clear(s.buf)
	s.buf = s.buf[:0]
}

// Hold copies k into the buffer and returns the copy, which stays valid
// until Reset. A scheduler holds a remainder it consumes, since a later
// split of the same batch reuses the remainder's storage.
func (s *Splitter) Hold(k *KernelDesc) *KernelDesc {
	s.buf = append(s.buf, *k)
	return &s.buf[len(s.buf)-1]
}

// SplitPrefix splits r, named name, into parts pieces. It returns the
// first take pieces and a remainder kernel representing the rest, used
// when the scheduler only needs a fraction of a lengthy kernel to fill
// an overlap window. Only the head pieces and the remainder are built;
// the head pieces live in the buffer until Reset. name, not r.Root.Name,
// names the pieces, because a plan's shared layer descriptor carries the
// block's base name.
//
// The remainder merges the remaining pieces into one kernel, to avoid
// needless launches, but keeps the original split granularity: its
// pieces are r's scaled by scale, so they are those of the Remainder
// with r's root and scale appended to r's scales.
func (s *Splitter) SplitPrefix(r Remainder, name string, parts, take int) (head []KernelDesc, rest KernelDesc, scale float64, ok bool) {
	if !r.Root.CanSplit() || parts < 2 || take <= 0 || take >= parts {
		return nil, KernelDesc{}, 0, false
	}
	names := s.namesOf(name, parts)
	start := len(s.buf)
	for i := 0; i < take; i++ {
		p := r.piece(i, parts)
		if names[i] == "" {
			names[i] = pieceName(name, i, parts)
		}
		p.Name = names[i]
		s.buf = append(s.buf, p)
	}
	head = s.buf[start:len(s.buf):len(s.buf)]
	// The remainder's duration is the sum of the tail pieces.
	rest = *r.Root
	rest.Duration, rest.Bytes = 0, 0
	for i := take; i < parts; i++ {
		d, b := r.cost(i, parts)
		rest.Duration += d
		rest.Bytes += b
	}
	if names[parts+take] == "" {
		names[parts+take] = fmt.Sprintf("%s[rest%d/%d]", name, parts-take, parts)
	}
	rest.Name = names[parts+take]
	return head, rest, float64(parts-take) / float64(parts), true
}

// namesOf returns the interned name slots of a parts-way split of name.
func (s *Splitter) namesOf(name string, parts int) []string {
	key := splitKey{name, parts}
	names, ok := s.names[key]
	if !ok {
		if s.names == nil {
			s.names = make(map[splitKey][]string)
		}
		names = make([]string, 2*parts)
		s.names[key] = names
	}
	return names
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
