package parallel

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/nccl"
)

// Split decomposes the kernel into parts equal pieces, named after it.
// It returns ok=false when the kernel is indivisible or parts < 2.
func (k KernelDesc) Split(parts int) ([]KernelDesc, bool) {
	return Remainder{Root: &k}.Split(k.Name, parts)
}

// Split decomposes the remainder, named name, into parts equal pieces.
func (r Remainder) Split(name string, parts int) ([]KernelDesc, bool) {
	if !r.Root.CanSplit() || parts < 2 {
		return nil, false
	}
	out := make([]KernelDesc, parts)
	for i := range out {
		out[i] = r.namedPiece(name, i, parts)
	}
	return out, true
}

// namedPiece returns piece i of a parts-way split of r, named after name.
func (r Remainder) namedPiece(name string, i, parts int) KernelDesc {
	p := r.piece(i, parts)
	p.Name = pieceName(name, i, parts)
	return p
}

// A descriptor with its split described by value is 80 bytes: 8 more
// than the 72 of the descriptor with a piece closure it replaced, for
// the split kind and the three GEMM dimensions packed beside Collective
// and the shared cost-model pointer in place of the closure. Every
// context shape and every decode batch size stores 14–15 descriptors
// (a decode shape adds only its attention): a prototype that also kept
// the remainder's chain of scales in the descriptor (a pointer and a
// slice, +32 B) raised serve-decode's and serve-kv-pressure's alloc_mb
// by 15 %, though neither ever splits a kernel.
func TestKernelDescSize(t *testing.T) {
	if got := unsafe.Sizeof(KernelDesc{}); got != 80 {
		t.Fatalf("KernelDesc is %d bytes, want 80", got)
	}
}

// refKernel is a kernel as the closure-based decomposition described
// it: a descriptor whose pieces a closure costs, nil if indivisible.
// The closures below are that decomposition's, kept as the reference
// the value path must reproduce.
type refKernel struct {
	desc  KernelDesc
	piece func(i, parts int) KernelDesc
}

func refGEMM(c *Compiler, strategy SplitStrategy, name string, m, n, k int) refKernel {
	cm := c.cm
	cs := c.node.Contention
	d := KernelDesc{
		Name:          name,
		Class:         gpusim.Compute,
		Duration:      cm.GEMM(m, n, k),
		ComputeDemand: cs.GEMMCompute,
		MemBWDemand:   cs.GEMMMemBW,
	}
	return refKernel{d, func(i, parts int) KernelDesc {
		splitDim := n
		if strategy == SplitHorizontal {
			splitDim = m
		}
		size := splitDim / parts
		if i < splitDim%parts {
			size++
		}
		rows, cols := m, size
		if strategy == SplitHorizontal {
			rows, cols = size, n
		}
		return KernelDesc{
			Class:         gpusim.Compute,
			Duration:      cm.GEMM(rows, cols, k),
			ComputeDemand: cs.GEMMCompute,
			MemBWDemand:   cs.GEMMMemBW,
		}
	}}
}

func refAllReduce(c *Compiler, name string, bytes int64) refKernel {
	comm := c.comm
	d := KernelDesc{
		Name:          name,
		Class:         gpusim.Comm,
		Duration:      comm.AllReduce(bytes),
		ComputeDemand: comm.ComputeDemand(),
		MemBWDemand:   comm.MemBWDemand(),
		Collective:    true,
		Bytes:         bytes,
	}
	return refKernel{d, func(i, parts int) KernelDesc {
		b := bytes / int64(parts)
		if int64(i) < bytes%int64(parts) {
			b++
		}
		return KernelDesc{
			Class:         gpusim.Comm,
			Duration:      comm.AllReduceChunk(bytes, b),
			ComputeDemand: comm.ComputeDemand(),
			MemBWDemand:   comm.MemBWDemand(),
			Collective:    true,
			Bytes:         b,
		}
	}}
}

func refEqual(k KernelDesc) refKernel {
	base := k
	return refKernel{k, func(_, parts int) KernelDesc {
		p := base
		p.Duration = base.Duration / time.Duration(parts)
		p.Bytes = base.Bytes / int64(parts)
		return p
	}}
}

// refSplitPrefix splits k, named name, as the closure-based SplitPrefix
// did: the remainder's closure wraps its parent's and scales each piece.
func refSplitPrefix(k refKernel, name string, parts, take int) (head []KernelDesc, rest refKernel) {
	for i := 0; i < take; i++ {
		p := k.piece(i, parts)
		p.Name = pieceName(name, i, parts)
		head = append(head, p)
	}
	rest.desc = k.piece(take, parts)
	for i := take + 1; i < parts; i++ {
		p := k.piece(i, parts)
		rest.desc.Duration += p.Duration
		rest.desc.Bytes += p.Bytes
	}
	rest.desc.Name = fmt.Sprintf("%s[rest%d/%d]", name, parts-take, parts)
	orig := k.piece
	frac := float64(parts-take) / float64(parts)
	rest.piece = func(i, p int) KernelDesc {
		q := orig(i, p)
		q.Duration = time.Duration(float64(q.Duration) * frac)
		q.Bytes = int64(float64(q.Bytes) * frac)
		return q
	}
	return head, rest
}

// refFitting counts the leading pieces of k that fit within budget, at
// most parts-1, building each with k's closure.
func refFitting(k refKernel, parts int, budget time.Duration) int {
	var acc time.Duration
	for i := 0; i < parts-1; i++ {
		if acc += k.piece(i, parts).Duration; acc > budget {
			return i
		}
	}
	return parts - 1
}

// describeRef renders a reference kernel as describe renders a
// descriptor.
func describeRef(k refKernel) string {
	d := k.desc
	return fmt.Sprintf("%s %v %v %g %g %v %d %v", d.Name, d.Class, d.Duration,
		d.ComputeDemand, d.MemBWDemand, d.Collective, d.Bytes, k.piece != nil)
}

// FuzzSplitChain splits a kernel again and again, D-way for D from 2 to
// 16, taking a fuzzed number of head pieces off each remainder, at
// least 8 levels deep. It checks every head piece, every merged
// remainder and every fitting count of the value path against the
// closures it replaced, names included. The kernel is a GEMM under
// either split strategy, an all-reduce or an equal-split kernel.
func FuzzSplitChain(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for kind := uint8(0); kind < 4; kind++ {
		for _, parts := range []uint8{2, 3, 8, 16} {
			takes := make([]byte, 10)
			rng.Read(takes)
			f.Add(kind, uint16(rng.Intn(4096)+1), uint16(rng.Intn(16384)+1), uint16(rng.Intn(16384)+1), uint32(rng.Intn(1<<26)+1), parts-2, takes)
		}
	}
	vert := NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true})
	horiz := NewCompiler(hw.A100Node(), nccl.Config{ReducedChannels: true}, WithGEMMSplit(SplitHorizontal))
	f.Fuzz(func(t *testing.T, kind uint8, m, n, k uint16, bytes uint32, parts uint8, takes []byte) {
		d := 2 + int(parts)%15
		var desc KernelDesc
		var ref refKernel
		switch kind % 4 {
		case 0:
			desc, ref = vert.gemmDesc("fc1", int(m), int(n), int(k)), refGEMM(vert, SplitVertical, "fc1", int(m), int(n), int(k))
		case 1:
			desc, ref = horiz.gemmDesc("fc1", int(m), int(n), int(k)), refGEMM(horiz, SplitHorizontal, "fc1", int(m), int(n), int(k))
		case 2:
			desc, ref = vert.allReduceDesc("fc2_ar", int64(bytes)), refAllReduce(vert, "fc2_ar", int64(bytes))
		default:
			syn := SyntheticKernel("comp", gpusim.Compute, time.Duration(bytes)*time.Nanosecond/3, 0.85, 0.5, m%2 == 0)
			syn.Bytes = int64(n) * int64(k)
			desc, ref = syn.WithEqualSplit(), refEqual(syn)
		}
		if g, w := describe(desc), describeRef(ref); g != w {
			t.Fatalf("kernel is\n  %s\nwant\n  %s", g, w)
		}
		var sp Splitter
		r := Remainder{Root: &desc}
		name := desc.Name
		// Cycle the takes so that every input splits at least 8 levels.
		for level := 0; level < max(8, len(takes)); level++ {
			b := byte(level)
			if len(takes) > 0 {
				b = takes[level%len(takes)]
			}
			for step := 0; step <= 8; step++ {
				budget := ref.desc.Duration * time.Duration(step) / 8
				if got, want := r.FittingPieces(d, budget), refFitting(ref, d, budget); got != want {
					t.Fatalf("level %d: %d of %d pieces fit within %v, want %d", level, got, d, budget, want)
				}
			}
			take := 1 + int(b)%(d-1)
			head, rest, scale, ok := sp.SplitPrefix(r, name, d, take)
			if !ok {
				t.Fatalf("level %d: SplitPrefix(%d, %d) refused", level, d, take)
			}
			refHead, refRest := refSplitPrefix(ref, name, d, take)
			for i := range refHead {
				if g, w := describe(head[i]), describeRef(refKernel{desc: refHead[i]}); g != w {
					t.Fatalf("level %d: piece %d is\n  %s\nwant\n  %s", level, i, g, w)
				}
			}
			if g, w := describe(rest), describeRef(refRest); g != w {
				t.Fatalf("level %d: remainder is\n  %s\nwant\n  %s", level, g, w)
			}
			r.Scales = append(r.Scales, scale)
			ref, name = refRest, rest.Name
			sp.Reset()
		}
	})
}
