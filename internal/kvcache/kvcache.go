// Package kvcache manages the key/value-cache memory of generative
// serving (§4.3). Each live sequence owns cache that grows one token
// per sampling iteration; the cache is sharded across the
// tensor-parallel group, and the paged allocator (PagedManager) enforces
// the per-device capacity left after weights and activation workspace —
// the admission control a production serving system needs before
// accepting new conversations.
package kvcache

import (
	"fmt"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/parallel"
)

// violations records accounting-invariant breaches (double release)
// instead of silently papering over them: the first breach keeps its
// descriptive error, later ones only bump the count.
type violations struct {
	count int
	first error
}

func (v *violations) record(err error) {
	v.count++
	if v.first == nil {
		v.first = err
	}
}

// budgetFor computes the per-device byte budget left for KV cache after
// the weight shard and the activation workspace, with the same safety
// margin as parallel.PlanPlacement.
func budgetFor(node hw.Node, spec model.Spec, maxBatch, maxSeq int) (int64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	rep := parallel.PlanPlacement(node, spec, maxBatch, maxSeq, 0, 0)
	budget := int64(parallel.MemSafety*float64(rep.DeviceBytes)) - rep.WeightBytesPerDevice - rep.WorkspaceBytes
	if budget <= 0 {
		return 0, fmt.Errorf("kvcache: no memory left for KV cache serving %s on %s", spec.Name, node.Name)
	}
	return budget, nil
}
