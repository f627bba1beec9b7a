package parallel

import (
	"fmt"
	"strconv"
	"sync"
)

// Plan is a compiled forward pass in layer-periodic form: the kernels
// before the transformer stack (Pre), one layer's kernels (Layer)
// repeated Layers times, and the kernels after it (Post). Every layer of
// a decoder lowers to the same costed kernels and only the "l<i>." name
// prefix differs, so a plan stores one layer and names the i-th copy
// when it is read. A Plan is read-only once built and may be shared.
type Plan struct {
	Pre, Layer, Post []KernelDesc
	Layers           int

	// names[j][l] is the name of Layer[j] in layer l. A plan built
	// without it repeats Layer's names verbatim.
	names [][]string
}

// Len returns the number of kernels the plan expands to.
func (p *Plan) Len() int { return len(p.Pre) + p.Layers*len(p.Layer) + len(p.Post) }

// Stored returns the number of descriptors the plan holds: Layer counts
// once, not Layers times.
func (p *Plan) Stored() int { return len(p.Pre) + len(p.Layer) + len(p.Post) }

// At returns kernel i of the expanded sequence, 0 <= i < Len(), and its
// name, without copying it: the descriptor is the plan's own, shared by
// every layer, so its Name is the layer block's base name and name is
// kernel i's. Callers must not modify the descriptor.
func (p *Plan) At(i int) (k *KernelDesc, name string) {
	if i < len(p.Pre) {
		k = &p.Pre[i]
		return k, k.Name
	}
	i -= len(p.Pre)
	n := p.Layers * len(p.Layer)
	if i >= n {
		k = &p.Post[i-n]
		return k, k.Name
	}
	l, j := i/len(p.Layer), i%len(p.Layer)
	k = &p.Layer[j]
	if p.names != nil {
		return k, p.names[j][l]
	}
	return k, k.Name
}

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
// stages, with Pre on stage 0 and Post on stage n-1. The spans of stages
// 0 to n-1 tile [0, Len()) in order. n must pass CheckStages.
func (p *Plan) StageSpan(s, n int) (lo, hi int) {
	per, extra := p.Layers/n, p.Layers%n
	lo = len(p.Pre) + (s*per+min(s, extra))*len(p.Layer)
	hi = lo + per*len(p.Layer)
	if s < extra {
		hi += len(p.Layer)
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
// phase and model depth), so a linear scan finds them.
type layerNames struct {
	mu     sync.Mutex
	byBase map[string][]string
	tables []namesTable
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
