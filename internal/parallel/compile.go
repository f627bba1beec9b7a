package parallel

import (
	"fmt"
	"math"
	"strconv"
	"sync"
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
	node hw.Node
	// costModels holds the kernel (cm) and collective (comm) cost
	// models; the compiler's decomposable kernels point at it to cost
	// their pieces.
	*costModels
	ncclCfg   nccl.Config
	gemmSplit SplitStrategy
	// names holds the per-layer kernel names every Plan of this compiler
	// shares; it fills on the first compile.
	names layerNames
	// decode holds the blocks the decode plans of each batch size share.
	decode decodeBlocks
}

// NewCompiler builds a compiler for the node. ncclCfg selects the
// communication-kernel footprint (Liger reduces channels; the baselines
// may keep NCCL defaults).
func NewCompiler(node hw.Node, ncclCfg nccl.Config, opts ...Option) *Compiler {
	c := &Compiler{
		node:       node,
		costModels: &costModels{cm: costmodel.New(node.GPU), comm: nccl.New(node, ncclCfg)},
		ncclCfg:    ncclCfg,
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
// is available separately for the ablation. A GEMM with a dimension
// past int32, far beyond any simulated shape, stays whole.
func (c *Compiler) gemmDesc(name string, m, n, k int) KernelDesc {
	cs := c.node.Contention
	d := KernelDesc{
		Name:          name,
		Class:         gpusim.Compute,
		Duration:      c.cm.GEMM(m, n, k),
		ComputeDemand: cs.GEMMCompute,
		MemBWDemand:   cs.GEMMMemBW,
	}
	if max(m, n, k) <= math.MaxInt32 {
		d.split, d.gemm, d.costs = splitColumns, [3]int32{int32(m), int32(n), int32(k)}, c.costModels
		if c.gemmSplit == SplitHorizontal {
			d.split = splitRows
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
	return KernelDesc{
		Name:          name,
		Class:         gpusim.Comm,
		Duration:      c.comm.AllReduce(bytes),
		ComputeDemand: c.comm.ComputeDemand(),
		MemBWDemand:   c.comm.MemBWDemand(),
		Collective:    true,
		Bytes:         bytes,
		split:         splitChunks,
		costs:         c.costModels,
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
		out = append(out, c.allReduceDesc(c.names.reduce(name), bytes))
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
// the layer block is compiled and costed once, whatever the depth, and
// a decode plan compiles only its attention once its batch size has
// been compiled (decodeBlocks). At
// tp == 1 it is also the Inter-Op pipeline's plan: the single-device
// pass its stages split by StageSpan.
func (c *Compiler) IntraOpPlan(spec model.Spec, tp int, w model.Workload) (*Plan, error) {
	if w.Phase == model.Decode {
		return c.decodePlan(spec, tp, w)
	}
	return c.periodicPlan(spec, tp, w, false)
}

// InterThPlan compiles the theoretical inter-operator baseline (§4.1):
// a pipeline of stages devices whose stages split the plan by StageSpan,
// each executing the intra-operator approach's stages-way partitioned
// kernels back to back on its one device. Fig. 10(j)(k) shows this can
// beat Inter-Op when the sum of partitioned GEMMs is shorter than the
// original kernel.
func (c *Compiler) InterThPlan(spec model.Spec, stages int, w model.Workload) (*Plan, error) {
	return c.periodicPlan(spec, stages, w, true)
}

// periodicPlan validates a compile and builds its plan.
func (c *Compiler) periodicPlan(spec model.Spec, tp int, w model.Workload, pieces bool) (*Plan, error) {
	if err := validate(spec, tp, w); err != nil {
		return nil, err
	}
	return c.build(spec, tp, w, pieces), nil
}

// build builds the plan of a valid compile, lowering the pre, layer and
// post blocks at degree tp: with compileBlock, or with compilePieces
// when pieces is set.
func (c *Compiler) build(spec model.Spec, tp int, w model.Workload, pieces bool) *Plan {
	block := func(ops []model.Op) []KernelDesc {
		if pieces {
			return c.compilePieces(ops, tp, w)
		}
		return c.compileBlock(ops, tp, w)
	}
	var ops [blockOps]model.Op
	p := &Plan{
		pre:    block(model.PreOps(ops[:0], spec, w)),
		layer:  block(model.LayerOps(ops[:0], spec, w)),
		post:   block(model.PostOps(ops[:0], spec, w)),
		Layers: spec.Layers,
	}
	p.names = c.names.of(p.layer, p.Layers)
	return p
}

// validate reports a compile of spec at degree tp for w that cannot be.
func validate(spec model.Spec, tp int, w model.Workload) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if tp < 1 {
		return fmt.Errorf("parallel: tensor-parallel degree %d", tp)
	}
	return nil
}

// decodeBlocks holds, per (spec, degree, batch), the first decode plan
// compiled for it, whose pre, layer and post blocks every later decode
// plan of that key shares: in a decode plan only the attention kernel
// reads the context length, and continuous serving asks for a new
// context length at nearly every step. The blocks are bounded by the
// distinct batch sizes, so they are never dropped.
type decodeBlocks struct {
	mu     sync.Mutex
	blocks map[decodeKey]decodeBlock
}

type decodeKey struct {
	spec      model.Spec
	tp, batch int
}

// decodeBlock is a key's first plan and the index of its attention
// kernel in the layer block.
type decodeBlock struct {
	plan *Plan
	attn int
}

// decodePlan compiles a decode plan: the first of its batch size whole,
// every later one as that plan's blocks with an attention descriptor of
// its own when its context length costs attention differently.
func (c *Compiler) decodePlan(spec model.Spec, tp int, w model.Workload) (*Plan, error) {
	if err := validate(spec, tp, w); err != nil {
		return nil, err
	}
	var ops [blockOps]model.Op
	op := attentionOp(model.LayerOps(ops[:0], spec, w))
	blk, fresh := c.decodeBlock(spec, tp, w, op.Name)
	if fresh {
		return blk.plan, nil
	}
	var out [1]KernelDesc
	attn := c.compileOp(out[:0], "", op, tp, w)[0]
	p := *blk.plan
	if attn != p.layer[blk.attn] {
		p.attn = &override{j: blk.attn, desc: attn}
	}
	return &p, nil
}

// decodeBlock returns the block of w's batch size at degree tp, and
// whether this call compiled it, for w; attn names the attention
// kernel. The compile must be valid.
func (c *Compiler) decodeBlock(spec model.Spec, tp int, w model.Workload, attn string) (blk decodeBlock, fresh bool) {
	d := &c.decode
	d.mu.Lock()
	defer d.mu.Unlock()
	key := decodeKey{spec: spec, tp: tp, batch: w.Batch}
	if blk, ok := d.blocks[key]; ok {
		return blk, false
	}
	blk.plan = c.build(spec, tp, w, false)
	for j, k := range blk.plan.layer {
		if k.Name == attn {
			blk.attn = j
		}
	}
	if d.blocks == nil {
		d.blocks = make(map[decodeKey]decodeBlock)
	}
	d.blocks[key] = blk
	return blk, true
}

// attentionOp returns the attention op of a layer's ops.
func attentionOp(ops []model.Op) model.Op {
	for _, op := range ops {
		if op.Kind == model.OpAttention {
			return op
		}
	}
	panic("parallel: a layer without attention")
}

// blockOps sizes the stack array the op builders fill during a compile:
// room for every block of the model package (a layer has ten ops), so
// building them allocates nothing.
const blockOps = 16

// StageSend is the boundary transfer after stage s of a pipeline: the
// activations of w's tokens, sent point to point to stage s+1. P2P
// copies use the copy engines, so their SM footprint is tiny and they
// co-run with the receiving stage's compute.
func (c *Compiler) StageSend(spec model.Spec, s int, w model.Workload) KernelDesc {
	bytes := int64(w.Tokens()) * int64(spec.Hidden) * 2
	return KernelDesc{
		Name:          "s" + strconv.Itoa(s) + "_send",
		Class:         gpusim.Comm,
		Duration:      c.comm.P2P(bytes),
		ComputeDemand: c.comm.P2PComputeDemand(),
		MemBWDemand:   c.comm.MemBWDemand(),
		Collective:    true, // rendezvous between the two stage devices
		Bytes:         bytes,
	}
}

// compilePieces lowers a run of ops for one pipeline stage device. With
// tp == 1 each op is its original kernel; with tp > 1 (Inter-Th) a
// partitioned op becomes its tp pieces, executed sequentially and named
// "p<i>." + op, with no all-reduce (a single device holds every piece).
// Replicated ops run once per device in intra-op, so a stage device
// runs them once.
func (c *Compiler) compilePieces(ops []model.Op, tp int, w model.Workload) []KernelDesc {
	out := make([]KernelDesc, 0, len(ops)*tp)
	for _, op := range ops {
		op.ReduceAfter = false
		if tp == 1 || op.Partition == model.PartNone {
			out = c.compileOp(out, "", op, 1, w)
			continue
		}
		for p := 0; p < tp; p++ {
			out = c.compileOp(out, "p"+strconv.Itoa(p)+".", op, tp, w)
		}
	}
	return out
}
