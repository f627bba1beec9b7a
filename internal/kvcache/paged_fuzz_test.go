package kvcache

import (
	"bytes"
	"errors"
	"testing"

	"liger/internal/hw"
	"liger/internal/model"
)

// FuzzPagedOps decodes a byte string into admit/extend/release/preempt
// operations and checks the allocator against a naive reference model:
// a map of sequence → cached tokens, the admission order, and
// free blocks = total − Σ⌈tokens/B⌉. Each byte's low two bits pick the
// operation and the high six bits its argument. Admissions are sized in
// sixteenths of the pool, so a handful of them exhausts it and the
// no-room paths are reachable. Plain `go test` runs only the seeds; run
// `go test -fuzz FuzzPagedOps ./internal/kvcache` to explore.
func FuzzPagedOps(f *testing.F) {
	const (
		admit   = 0
		extend  = 1
		release = 2
		preempt = 3
	)
	op := func(kind, arg int) byte { return byte(arg<<2 | kind) }
	f.Add([]byte{op(admit, 0), op(extend, 0), op(release, 0), op(preempt, 0)})
	// Fill the pool with one sequence, fail a second admission, then
	// extend until the leftover blocks run out and Extend fails too.
	f.Add(append([]byte{op(admit, 15), op(admit, 15)}, bytes.Repeat([]byte{op(extend, 0)}, 300)...))
	// Mixed shapes with partial tail blocks, preempting newest-first.
	f.Add([]byte{op(admit, 20), op(admit, 35), op(admit, 51), op(extend, 1), op(preempt, 0),
		op(admit, 7), op(extend, 2), op(release, 1), op(preempt, 0), op(preempt, 0), op(preempt, 0)})
	f.Add(bytes.Repeat([]byte{op(admit, 5), op(extend, 3), op(admit, 9), op(preempt, 0), op(release, 2)}, 8))

	node, spec := smallPoolNode(f, 250)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m, err := NewPaged(node, spec, 8, 128, PagedConfig{BlockTokens: 8})
		if err != nil {
			t.Fatal(err)
		}
		bt := m.BlockTokens()
		unit := bt * max(1, m.TotalBlocks()/16)
		blocks := func(tokens int) int { return (tokens + bt - 1) / bt }

		seqs := map[int]int{} // reference: sequence → cached tokens
		var order []int       // reference admission order, oldest first
		free := m.TotalBlocks()
		next := 0
		drop := func(k int) {
			id := order[k]
			free += blocks(seqs[id])
			delete(seqs, id)
			order = append(order[:k], order[k+1:]...)
		}

		for i, b := range ops {
			kind, arg := int(b&3), int(b>>2)
			switch kind {
			case admit:
				tokens := (1+arg&15)*unit - arg>>4
				room := blocks(tokens) <= free
				if got := m.CanAdmit(tokens); got != room {
					t.Fatalf("op %d: CanAdmit(%d) = %v with %d of %d blocks free", i, tokens, got, free, m.TotalBlocks())
				}
				err := m.Admit(next, tokens)
				if (err == nil) != room || errors.Is(err, ErrNoFreeBlocks) == room {
					t.Fatalf("op %d: Admit(%d tokens) = %v, reference room %v", i, tokens, err, room)
				}
				if room {
					seqs[next] = tokens
					order = append(order, next)
					free -= blocks(tokens)
				}
				next++
			case extend:
				if len(order) == 0 {
					continue
				}
				id := order[arg%len(order)]
				grow := seqs[id]%bt == 0 // tail block full
				room := !grow || free > 0
				err := m.Extend(id)
				if (err == nil) != room || errors.Is(err, ErrNoFreeBlocks) == room {
					t.Fatalf("op %d: Extend(%d) at %d tokens = %v, reference room %v", i, id, seqs[id], err, room)
				}
				if room {
					seqs[id]++
					if grow {
						free--
					}
				}
			case release:
				if len(order) == 0 {
					continue
				}
				k := arg % len(order)
				m.Release(order[k])
				drop(k)
			case preempt:
				id, tokens, ok := m.Preempt()
				if ok != (len(order) > 0) {
					t.Fatalf("op %d: Preempt ok = %v with %d live", i, ok, len(order))
				}
				if !ok {
					continue
				}
				newest := order[len(order)-1]
				if id != newest || tokens != seqs[newest] {
					t.Fatalf("op %d: Preempt -> (%d, %d), want newest %d with %d tokens", i, id, tokens, newest, seqs[newest])
				}
				drop(len(order) - 1)
			}
			if m.FreeBlocks() != free || m.Live() != len(seqs) {
				t.Fatalf("op %d: %d free / %d live, reference %d / %d", i, m.FreeBlocks(), m.Live(), free, len(seqs))
			}
			for id, tokens := range seqs {
				if m.Tokens(id) != tokens {
					t.Fatalf("op %d: sequence %d holds %d tokens, reference %d", i, id, m.Tokens(id), tokens)
				}
			}
			if m.Violations() != 0 {
				t.Fatalf("op %d: %v", i, m.InvariantErr())
			}
		}
	})
}

// smallPoolNode shrinks an A100 node's device memory until an 8-token
// block allocator for the returned model holds about blocks blocks —
// a pool small enough that every fuzz input runs in microseconds. The
// budget is linear in memory, so two probes solve for it.
func smallPoolNode(tb testing.TB, blocks int) (hw.Node, model.Spec) {
	tb.Helper()
	node, spec := hw.A100Node(), model.OPT30B().WithLayers(8)
	budget := func(memGB float64) int64 {
		node.GPU.MemGB = memGB
		b, err := budgetFor(node, spec, 8, 128)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	b80, b40 := budget(80), budget(40)
	blockBytes := 8 * (spec.KVCacheBytes(1) / int64(node.NumGPUs))
	want := (float64(blocks) + 0.5) * float64(blockBytes)
	node.GPU.MemGB = 80 + (want-float64(b80))/(float64(b80-b40)/40)
	m, err := NewPaged(node, spec, 8, 128, PagedConfig{BlockTokens: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if m.TotalBlocks() != blocks {
		tb.Fatalf("small pool holds %d blocks, want %d", m.TotalBlocks(), blocks)
	}
	return node, spec
}
