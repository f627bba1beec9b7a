package parallel

import (
	"fmt"
	"strconv"
	"sync"
)

// Plan is a compiled forward pass in layer-periodic form: the kernels
// before the transformer stack (pre), one layer's kernels (layer)
// repeated Layers times, and the kernels after it (post). Every layer of
// a decoder lowers to the same costed kernels and only the "l<i>." name
// prefix differs, so a plan stores one layer and names the i-th copy
// when it is read. A decode plan goes further: only its attention reads
// the context length, so the decode plans of one batch size share one
// set of blocks and each holds only its own attention descriptor
// (attn), which At, the one reader of the layer block, reads in place
// of the block's. For OPT-30B at four-way tensor parallelism a context
// shape stores 14 descriptors and a decode batch size 15. A Plan is
// read-only once built and may be shared.
type Plan struct {
	pre, layer, post []KernelDesc
	Layers           int

	// names[j][l] is the name of layer[j] in layer l. A plan built
	// without it repeats layer's names verbatim.
	names [][]string

	// attn, when not nil, stands in for one kernel of the shared layer
	// block in every layer. It is out of line so that a Plan stays in
	// its 112-byte size class (TestPlanSize).
	attn *override
}

// override is a plan's own descriptor for kernel j of its layer block.
type override struct {
	j    int
	desc KernelDesc
}

// FlatPlan wraps a flat kernel sequence as a plan with only a pre block,
// read in place: the caller must not modify kernels afterwards.
func FlatPlan(kernels []KernelDesc) *Plan { return &Plan{pre: kernels} }

// Len returns the number of kernels the plan expands to.
func (p *Plan) Len() int { return len(p.pre) + p.Layers*len(p.layer) + len(p.post) }

// Stored returns the number of descriptors the plan's blocks hold: the
// layer block counts once, not Layers times, and a decode plan counts
// the blocks it shares with its batch size, as if it held them alone.
func (p *Plan) Stored() int { return len(p.pre) + len(p.layer) + len(p.post) }

// At returns kernel i of the expanded sequence, 0 <= i < Len(), and its
// name, without copying it: the descriptor is the plan's own, or its
// batch size's, shared by every layer, so its Name is the layer block's
// base name and name is kernel i's. Callers must not modify the
// descriptor.
func (p *Plan) At(i int) (k *KernelDesc, name string) {
	if i < len(p.pre) {
		k = &p.pre[i]
		return k, k.Name
	}
	i -= len(p.pre)
	n := p.Layers * len(p.layer)
	if i >= n {
		k = &p.post[i-n]
		return k, k.Name
	}
	l, j := i/len(p.layer), i%len(p.layer)
	k = &p.layer[j]
	if p.attn != nil && j == p.attn.j {
		k = &p.attn.desc
	}
	if p.names != nil {
		return k, p.names[j][l]
	}
	return k, k.Name
}

// Layer returns the layer kernel i of the expanded sequence runs in and
// its index in the layer block, or -1 and -1 when it lies in the pre or
// post block.
func (p *Plan) Layer(i int) (l, j int) {
	i -= len(p.pre)
	if i < 0 || i >= p.Layers*len(p.layer) {
		return -1, -1
	}
	return i / len(p.layer), i % len(p.layer)
}

// LayerLen returns the number of kernels in the layer block.
func (p *Plan) LayerLen() int { return len(p.layer) }

// Kernels expands the plan into its flat kernel sequence.
func (p *Plan) Kernels() []KernelDesc {
	out := make([]KernelDesc, p.Len())
	for i := range out {
		k, name := p.At(i)
		out[i] = *k
		out[i].Name = name
	}
	return out
}

// CheckStages reports an error unless the plan splits into an n-stage
// pipeline: at least one stage, and at least one layer per stage.
func (p *Plan) CheckStages(n int) error {
	if n < 1 || n > p.Layers {
		return fmt.Errorf("parallel: %d stages for %d layers", n, p.Layers)
	}
	return nil
}

// StageSpan returns the span [lo, hi) of the expanded sequence that
// stage s of an n-stage pipeline runs on its device: a contiguous run of
// layers, the Layers%n leftover layers going one each to the leading
// stages, with the pre block on stage 0 and the post block on stage
// n-1. The spans of stages 0 to n-1 tile [0, Len()) in order. n must
// pass CheckStages.
func (p *Plan) StageSpan(s, n int) (lo, hi int) {
	per, extra := p.Layers/n, p.Layers%n
	lo = len(p.pre) + (s*per+min(s, extra))*len(p.layer)
	hi = lo + per*len(p.layer)
	if s < extra {
		hi += len(p.layer)
	}
	if s == 0 {
		lo = 0
	}
	if s == n-1 {
		hi = p.Len()
	}
	return lo, hi
}

// layerNames interns the kernel names of a compiler's plans, so that a
// compile allocates only what its plan keeps. byBase[base][l] is
// "l<l>." + base; it fills lazily, as compiles ask for deeper models or
// new kernels, and every table shares its strings. tables holds one
// names table per distinct layer-name sequence and depth, shared by
// every plan with that layer block; a compiler sees a handful (one per
// phase and model depth), so a linear scan finds them. reduced[name] is
// name + "_ar", the all-reduce after kernel name.
type layerNames struct {
	mu      sync.Mutex
	byBase  map[string][]string
	tables  []namesTable
	reduced map[string]string
}

// reduce returns the interned name of the all-reduce after kernel name.
func (t *layerNames) reduce(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ar, ok := t.reduced[name]
	if !ok {
		if t.reduced == nil {
			t.reduced = make(map[string]string)
		}
		ar = name + "_ar"
		t.reduced[name] = ar
	}
	return ar
}

// namesTable is one interned table: names[j][l] names kernel bases[j]
// of a layer block in layer l, for layers 0 to layers-1.
type namesTable struct {
	layers int
	bases  []string
	names  [][]string
}

// of returns, for each kernel of a layer block, its names in layers 0
// to layers-1.
func (t *layerNames) of(block []KernelDesc, layers int) [][]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tab := range t.tables {
		if tab.layers == layers && sameBases(tab.bases, block) {
			return tab.names
		}
	}
	if t.byBase == nil {
		t.byBase = make(map[string][]string)
	}
	tab := namesTable{layers: layers, bases: make([]string, len(block)), names: make([][]string, len(block))}
	for j, k := range block {
		names := t.byBase[k.Name]
		if len(names) < layers {
			grown := make([]string, layers)
			copy(grown, names)
			for l := len(names); l < layers; l++ {
				grown[l] = "l" + strconv.Itoa(l) + "." + k.Name
			}
			t.byBase[k.Name] = grown
			names = grown
		}
		tab.bases[j] = k.Name
		tab.names[j] = names[:layers:layers]
	}
	t.tables = append(t.tables, tab)
	return tab.names
}

// sameBases reports whether bases are the names of block's kernels, in
// order.
func sameBases(bases []string, block []KernelDesc) bool {
	if len(bases) != len(block) {
		return false
	}
	for j, k := range block {
		if bases[j] != k.Name {
			return false
		}
	}
	return true
}
