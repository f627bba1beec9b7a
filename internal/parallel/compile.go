package parallel

import (
	"fmt"
	"time"

	"liger/internal/costmodel"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
)

// SplitStrategy selects how runtime decomposition divides GEMMs
// (Fig. 9). Vertical (weight-column) division is Liger's choice;
// Horizontal exists for the ablation that shows why.
type SplitStrategy int

const (
	// SplitVertical divides the weight matrix's output columns.
	SplitVertical SplitStrategy = iota
	// SplitHorizontal divides the activation's rows, collapsing compute
	// intensity for skinny activations.
	SplitHorizontal
)

// Option customizes a Compiler.
type Option func(*Compiler)

// WithGEMMSplit overrides the GEMM decomposition strategy.
func WithGEMMSplit(s SplitStrategy) Option {
	return func(c *Compiler) { c.gemmSplit = s }
}

// Compiler turns logical operators into costed kernels for a specific
// node and NCCL configuration.
type Compiler struct {
	node      hw.Node
	cm        *costmodel.Model
	comm      *nccl.Comm
	ncclCfg   nccl.Config
	gemmSplit SplitStrategy
	// names holds the per-layer kernel names every Plan of this compiler
	// shares; it fills on the first compile.
	names layerNames
}

// NewCompiler builds a compiler for the node. ncclCfg selects the
// communication-kernel footprint (Liger reduces channels; the baselines
// may keep NCCL defaults).
func NewCompiler(node hw.Node, ncclCfg nccl.Config, opts ...Option) *Compiler {
	c := &Compiler{
		node:    node,
		cm:      costmodel.New(node.GPU),
		comm:    nccl.New(node, ncclCfg),
		ncclCfg: ncclCfg,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ForWorldSize returns a compiler targeting the same node shrunk to n
// devices — the reduced world a runtime re-plans for after a permanent
// device failure. Collective costs re-price for n ranks; the NCCL
// footprint and GEMM split strategy carry over. n equal to the current
// world returns the receiver unchanged.
func (c *Compiler) ForWorldSize(n int) *Compiler {
	if n == c.node.NumGPUs {
		return c
	}
	if n < 1 {
		panic(fmt.Sprintf("parallel: world size %d", n))
	}
	nc := NewCompiler(c.node.WithGPUs(n), c.ncclCfg)
	nc.gemmSplit = c.gemmSplit
	return nc
}

// CostModel exposes the kernel cost model (for profiling tools).
func (c *Compiler) CostModel() *costmodel.Model { return c.cm }

// Comm exposes the collective cost model.
func (c *Compiler) Comm() *nccl.Comm { return c.comm }

// Node returns the target hardware.
func (c *Compiler) Node() hw.Node { return c.node }

// gemmDesc builds a decomposable GEMM kernel. Runtime decomposition
// splits the output columns (the vertical strategy of Fig. 9): each
// piece is GEMM(m, n/parts, k), an equal-capability division whose
// pieces are only mildly less efficient. The horizontal (row) strategy
// is available separately for the ablation.
func (c *Compiler) gemmDesc(name string, m, n, k int) KernelDesc {
	cm := c.cm
	cs := c.node.Contention
	strategy := c.gemmSplit
	d := KernelDesc{
		Name:          name,
		Class:         gpusim.Compute,
		Duration:      cm.GEMM(m, n, k),
		ComputeDemand: cs.GEMMCompute,
		MemBWDemand:   cs.GEMMMemBW,
	}
	d.piece = func(i, parts int) KernelDesc {
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
	}
	return d
}

// auxDesc builds a memory-bound kernel (layernorm, GeLU, residual,
// attention, embedding).
func (c *Compiler) auxDesc(name string, dur time.Duration) KernelDesc {
	cs := c.node.Contention
	return KernelDesc{
		Name:          name,
		Class:         gpusim.Compute,
		Duration:      dur,
		ComputeDemand: cs.AuxCompute,
		MemBWDemand:   cs.AuxMemBW,
	}
}

// allReduceDesc builds a decomposable all-reduce kernel; decomposition
// splits the payload into equal chunks, each paying the collective
// latency again (§3.6's equal-division strategy).
func (c *Compiler) allReduceDesc(name string, bytes int64) KernelDesc {
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
	d.piece = func(i, parts int) KernelDesc {
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
	}
	return d
}

// p2pDesc builds a pipeline-boundary transfer. P2P copies use the copy
// engines, so their SM footprint is tiny and they co-run with the
// receiving stage's compute.
func (c *Compiler) p2pDesc(name string, bytes int64) KernelDesc {
	return KernelDesc{
		Name:          name,
		Class:         gpusim.Comm,
		Duration:      c.comm.P2P(bytes),
		ComputeDemand: c.comm.P2PComputeDemand(),
		MemBWDemand:   c.comm.MemBWDemand(),
		Collective:    true, // rendezvous between the two stage devices
		Bytes:         bytes,
	}
}

// compileOp lowers one logical op at tensor-parallel degree tp into the
// kernels one rank executes, appending them to out together with the
// Megatron all-reduce at ReduceAfter points.
func (c *Compiler) compileOp(out []KernelDesc, prefix string, op model.Op, tp int, w model.Workload) []KernelDesc {
	tokens := w.Tokens()
	name := prefix + op.Name
	switch op.Kind {
	case model.OpGEMM:
		n, k := op.N, op.K
		switch op.Partition {
		case model.PartCols:
			n = ceilDiv(n, tp)
		case model.PartRows:
			k = ceilDiv(k, tp)
		}
		out = append(out, c.gemmDesc(name, op.M, n, k))
	case model.OpAttention:
		heads := ceilDiv(op.Heads, tp)
		var dur time.Duration
		if w.Phase == model.Decode {
			// Decode streams the KV cache: with grouped-query attention
			// only KVHeads worth of cache exists per device.
			kvHeads := op.KVHeads
			if kvHeads == 0 {
				kvHeads = op.Heads
			}
			dur = c.cm.AttentionDecode(op.Batch, op.Ctx, ceilDiv(kvHeads, tp), op.HeadDim)
		} else {
			dur = c.cm.AttentionContext(op.Batch, op.Seq, heads, op.HeadDim)
		}
		out = append(out, c.auxDesc(name, dur))
	case model.OpLayerNorm, model.OpResidual:
		out = append(out, c.auxDesc(name, c.cm.Elementwise(op.Bytes, 1)))
	case model.OpGeLU:
		bytes := op.Bytes
		if op.Partition == model.PartNone && tp > 1 {
			// GeLU operates on FC1's partitioned output.
			bytes /= int64(tp)
		}
		out = append(out, c.auxDesc(name, c.cm.Elementwise(bytes, 1)))
	case model.OpEmbedding:
		out = append(out, c.auxDesc(name, c.cm.Embedding(op.M, op.N)))
	}
	if op.ReduceAfter && tp > 1 {
		bytes := int64(tokens) * int64(c.hidden(op)) * 2
		out = append(out, c.allReduceDesc(name+"_ar", bytes))
	}
	return out
}

// hidden recovers the activation width after an op (the all-reduce
// payload dimension).
func (c *Compiler) hidden(op model.Op) int {
	if op.Kind == model.OpGEMM {
		return op.N
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// compileBlock lowers a run of ops at tensor-parallel degree tp into a
// slice sized exactly, since plans are cached: one kernel per op plus
// compileOp's all-reduces.
func (c *Compiler) compileBlock(ops []model.Op, tp int, w model.Workload) []KernelDesc {
	n := len(ops)
	if tp > 1 {
		for _, op := range ops {
			if op.ReduceAfter {
				n++
			}
		}
	}
	out := make([]KernelDesc, 0, n)
	for _, op := range ops {
		out = c.compileOp(out, "", op, tp, w)
	}
	return out
}

// IntraOp compiles the full forward pass under tensor parallelism of
// degree tp. The result is the SPMD kernel sequence every rank runs;
// Collective kernels rendezvous across all tp ranks. With tp == 1 the
// result is the plain single-device execution (no communication). It is
// IntraOpPlan expanded.
func (c *Compiler) IntraOp(spec model.Spec, tp int, w model.Workload) ([]KernelDesc, error) {
	p, err := c.IntraOpPlan(spec, tp, w)
	if err != nil {
		return nil, err
	}
	return p.Kernels(), nil
}

// IntraOpCapacity is the analytic saturated throughput (workloads/s) of
// the intra-op baseline running w over every device of an idle node:
// one second over the summed compute and communication time of its
// kernels, or 1 when w does not compile or costs nothing. Sweeps and
// scenarios center and normalize their arrival rates on it.
func IntraOpCapacity(node hw.Node, spec model.Spec, w model.Workload) float64 {
	ks, err := NewCompiler(node, nccl.Config{}).IntraOp(spec, node.NumGPUs, w)
	if err != nil {
		return 1
	}
	compute, comm := TotalDurations(ks)
	total := compute + comm
	if total <= 0 {
		return 1
	}
	return float64(time.Second) / float64(total)
}

// IntraOpPlan compiles the forward pass of IntraOp in layer-periodic
// form. Every transformer layer lowers to the same costed kernels, so
// the layer block is compiled and costed once, whatever the depth.
func (c *Compiler) IntraOpPlan(spec model.Spec, tp int, w model.Workload) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if tp < 1 {
		return nil, fmt.Errorf("parallel: tensor-parallel degree %d", tp)
	}
	var ops [blockOps]model.Op
	p := &Plan{
		Pre:    c.compileBlock(model.PreOps(ops[:0], spec, w), tp, w),
		Layer:  c.compileBlock(model.LayerOps(ops[:0], spec, w), tp, w),
		Post:   c.compileBlock(model.PostOps(ops[:0], spec, w), tp, w),
		Layers: spec.Layers,
	}
	p.names = c.names.of(p.Layer, p.Layers)
	return p, nil
}

// blockOps sizes the stack array the op builders fill during a compile:
// room for every block of the model package (a layer has ten ops), so
// building them allocates nothing.
const blockOps = 16

// Stage is one pipeline stage: the kernels one device runs for its
// layer range, plus the boundary transfer to the next stage (empty for
// the last stage).
type Stage struct {
	Device  int
	Kernels []KernelDesc
	// SendNext is the p2p transfer of activations to the next stage;
	// zero-valued for the final stage.
	SendNext KernelDesc
	HasSend  bool
}

// InterOp compiles the pipeline-parallel execution: the model is split
// into stages equal contiguous layer groups, each on its own device,
// with a single point-to-point transfer between consecutive stages
// (§2.2.2). Kernels inside a stage are the original full-size kernels.
func (c *Compiler) InterOp(spec model.Spec, stages int, w model.Workload) ([]Stage, error) {
	return c.interOp(spec, stages, w, 1)
}

// InterTh compiles the theoretical inter-operator baseline (§4.1): the
// same pipeline, but each stage executes the *partitioned* kernels of
// the intra-operator approach back to back (tp pieces sequentially on
// one device). Fig. 10(j)(k) shows this can beat Inter-Op when the sum
// of partitioned GEMMs is shorter than the original kernel.
func (c *Compiler) InterTh(spec model.Spec, stages int, w model.Workload) ([]Stage, error) {
	return c.interOp(spec, stages, w, stages)
}

func (c *Compiler) interOp(spec model.Spec, stages int, w model.Workload, tp int) ([]Stage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if stages < 1 || stages > spec.Layers {
		return nil, fmt.Errorf("parallel: %d stages for %d layers", stages, spec.Layers)
	}
	perStage := spec.Layers / stages
	extra := spec.Layers % stages
	actBytes := int64(w.Tokens()) * int64(spec.Hidden) * 2

	var layerBuf, edgeBuf [blockOps]model.Op
	layerOps := model.LayerOps(layerBuf[:0], spec, w)
	var out []Stage
	layer := 0
	for st := 0; st < stages; st++ {
		count := perStage
		if st < extra {
			count++
		}
		stage := Stage{Device: st}
		if st == 0 {
			for _, op := range model.PreOps(edgeBuf[:0], spec, w) {
				stage.Kernels = c.compilePieces(stage.Kernels, "", op, tp, w)
			}
		}
		for i := 0; i < count; i++ {
			prefix := fmt.Sprintf("l%d.", layer)
			for _, op := range layerOps {
				stage.Kernels = c.compilePieces(stage.Kernels, prefix, op, tp, w)
			}
			layer++
		}
		if st == stages-1 {
			for _, op := range model.PostOps(edgeBuf[:0], spec, w) {
				stage.Kernels = c.compilePieces(stage.Kernels, "", op, tp, w)
			}
		} else {
			stage.SendNext = c.p2pDesc(fmt.Sprintf("s%d_send", st), actBytes)
			stage.HasSend = true
		}
		out = append(out, stage)
	}
	return out, nil
}

// compilePieces lowers an op for a pipeline stage, appending to out.
// With tp == 1 it is the original kernel; with tp > 1 (Inter-Th) the op
// becomes its tp partitioned pieces executed sequentially on the stage
// device, with no all-reduce (a single device holds every piece).
func (c *Compiler) compilePieces(out []KernelDesc, prefix string, op model.Op, tp int, w model.Workload) []KernelDesc {
	op.ReduceAfter = false
	if tp == 1 {
		return c.compileOp(out, prefix, op, 1, w)
	}
	switch op.Partition {
	case model.PartCols, model.PartRows, model.PartHeads:
		for p := 0; p < tp; p++ {
			out = c.compileOp(out, fmt.Sprintf("%sp%d.", prefix, p), op, tp, w)
		}
		return out
	default:
		// Replicated ops run once per device in intra-op; a single stage
		// device runs them once.
		return c.compileOp(out, prefix, op, 1, w)
	}
}
