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

	// piece costs piece i of a parts-way split into equal-capability
	// sub-kernels, unnamed; nil if the kernel is not decomposable. The
	// callers name the pieces they keep, so counting how many pieces fit
	// builds no names, and one costed descriptor serves every layer of a
	// Plan.
	piece func(i, parts int) KernelDesc
}

// CanSplit reports whether runtime kernel decomposition applies.
func (k KernelDesc) CanSplit() bool { return k.piece != nil }

// Split decomposes the kernel into parts equal pieces. It returns
// ok=false when the kernel is indivisible or parts < 2.
func (k KernelDesc) Split(parts int) ([]KernelDesc, bool) {
	if k.piece == nil || parts < 2 {
		return nil, false
	}
	out := make([]KernelDesc, parts)
	for i := range out {
		out[i] = k.namedPiece(i, parts)
	}
	return out, true
}

// namedPiece returns piece i of a parts-way split, named after k.
func (k KernelDesc) namedPiece(i, parts int) KernelDesc {
	p := k.piece(i, parts)
	p.Name = pieceName(k.Name, i, parts)
	return p
}

// FittingPieces returns how many leading pieces of a parts-way split
// fit within budget together, at most parts-1 (a kernel that fits whole
// needs no split); 0 when the kernel is indivisible, parts < 2 or not
// even the first piece fits. It costs the pieces without building them.
func (k *KernelDesc) FittingPieces(parts int, budget time.Duration) int {
	if k.piece == nil || parts < 2 {
		return 0
	}
	var acc time.Duration
	for i := 0; i < parts-1; i++ {
		if acc += k.piece(i, parts).Duration; acc > budget {
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

// SplitPrefix splits k, named name, into parts pieces. It returns the
// first take pieces and a remainder kernel representing the rest, used
// when the scheduler only needs a fraction of a lengthy kernel to fill
// an overlap window. Only the head pieces and the remainder are built;
// the head pieces live in the buffer until Reset. name, not k.Name,
// names the pieces, because a plan's shared layer descriptor carries the
// block's base name.
func (s *Splitter) SplitPrefix(k *KernelDesc, name string, parts, take int) (head []KernelDesc, rest KernelDesc, ok bool) {
	if k.piece == nil || parts < 2 || take <= 0 || take >= parts {
		return nil, KernelDesc{}, false
	}
	names := s.namesOf(name, parts)
	start := len(s.buf)
	for i := 0; i < take; i++ {
		p := k.piece(i, parts)
		if names[i] == "" {
			names[i] = pieceName(name, i, parts)
		}
		p.Name = names[i]
		s.buf = append(s.buf, p)
	}
	head = s.buf[start:len(s.buf):len(s.buf)]
	// Merge the remaining pieces into one kernel to avoid needless
	// launches; its duration is the sum of the tail pieces.
	rest = k.piece(take, parts)
	for i := take + 1; i < parts; i++ {
		p := k.piece(i, parts)
		rest.Duration += p.Duration
		rest.Bytes += p.Bytes
	}
	if names[parts+take] == "" {
		names[parts+take] = fmt.Sprintf("%s[rest%d/%d]", name, parts-take, parts)
	}
	rest.Name = names[parts+take]
	// The merged remainder keeps the original split granularity: its
	// pieces are the original's, scaled.
	orig := k.piece
	frac := float64(parts-take) / float64(parts)
	rest.piece = func(i, p int) KernelDesc {
		q := orig(i, p)
		q.Duration = time.Duration(float64(q.Duration) * frac)
		q.Bytes = int64(float64(q.Bytes) * frac)
		return q
	}
	return head, rest, true
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
