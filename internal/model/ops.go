package model

import "fmt"

// Phase distinguishes the two execution regimes of generative serving
// (§4.3): the initial conditioning (context) phase processes the whole
// prompt at once; the incremental sampling (decode) phase produces one
// token at a time against a KV cache.
type Phase int

const (
	// Context processes SeqLen tokens per request in one forward pass —
	// the paper's "general tasks" (§4.2).
	Context Phase = iota
	// Decode processes one new token per request against a KV cache of
	// CtxLen prior tokens (§4.3).
	Decode
)

func (p Phase) String() string {
	if p == Decode {
		return "decode"
	}
	return "context"
}

// Workload fixes the input shape of one inference.
type Workload struct {
	Batch int
	// SeqLen is the prompt length (Context) per request.
	SeqLen int
	// CtxLen is the KV-cache length (Decode) per request.
	CtxLen int
	Phase  Phase
}

// Tokens returns the number of tokens entering each GEMM (the row
// dimension m).
func (w Workload) Tokens() int {
	if w.Phase == Decode {
		return w.Batch
	}
	return w.Batch * w.SeqLen
}

// Validate reports bad shapes.
func (w Workload) Validate() error {
	if w.Batch <= 0 {
		return fmt.Errorf("model: batch %d must be positive", w.Batch)
	}
	if w.Phase == Context && w.SeqLen <= 0 {
		return fmt.Errorf("model: context workload needs positive seq len")
	}
	if w.Phase == Decode && w.CtxLen <= 0 {
		return fmt.Errorf("model: decode workload needs positive ctx len")
	}
	return nil
}

// OpKind enumerates logical operator types in a transformer layer.
type OpKind int

const (
	OpLayerNorm OpKind = iota
	OpGEMM
	OpAttention
	OpGeLU
	OpResidual
	OpEmbedding
)

func (k OpKind) String() string {
	switch k {
	case OpLayerNorm:
		return "layernorm"
	case OpGEMM:
		return "gemm"
	case OpAttention:
		return "attention"
	case OpGeLU:
		return "gelu"
	case OpResidual:
		return "residual"
	case OpEmbedding:
		return "embedding"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// PartitionDim says which GEMM dimension tensor parallelism splits.
// Megatron splits QKV and FC1 column-wise (N) and the attention output
// and FC2 row-wise (K); a row-wise split leaves partial sums that the
// trailing all-reduce combines (§2.2.1: two all-reduces per layer).
type PartitionDim int

const (
	// PartNone marks ops replicated on every tensor-parallel rank.
	PartNone PartitionDim = iota
	// PartCols splits the GEMM output columns (N).
	PartCols
	// PartRows splits the GEMM inner dimension (K); requires an
	// all-reduce afterwards.
	PartRows
	// PartHeads splits attention heads.
	PartHeads
)

// Op is one logical operator of the full (unpartitioned) model.
type Op struct {
	Name string
	Kind OpKind
	// GEMM shape (full model): M×K times K×N.
	M, N, K int
	// Attention shape. KVHeads < Heads means grouped-query attention;
	// the decode phase streams KVHeads worth of cache.
	Heads, KVHeads, HeadDim, Seq, Ctx, Batch int
	// Bytes moved for streaming ops.
	Bytes int64
	// Partition describes how tensor parallelism splits this op.
	Partition PartitionDim
	// ReduceAfter marks the Megatron synchronization points: under
	// tensor parallelism an all-reduce of the activation follows this
	// op.
	ReduceAfter bool
}

// LayerOps appends the logical operators of one transformer layer for
// the given workload to dst, in execution order, and returns the
// extended slice. The graph has the kernel-type structure Liger
// schedules around: a run of computation ops ending at each ReduceAfter
// switch point (§3.4). A dst with room for the ten ops takes them
// without allocating.
func LayerOps(dst []Op, s Spec, w Workload) []Op {
	tokens := w.Tokens()
	h := s.Hidden
	actBytes := int64(tokens) * int64(h) * 2

	attn := Op{
		Name: "attn", Kind: OpAttention,
		Heads: s.Heads, KVHeads: s.NumKVHeads(), HeadDim: s.HeadDim(), Batch: w.Batch,
		Partition: PartHeads,
	}
	if w.Phase == Decode {
		attn.Ctx = w.CtxLen
		attn.Seq = 1
	} else {
		attn.Seq = w.SeqLen
	}

	// QKV projection width: h for Q plus K and V at the (possibly
	// grouped) KV width.
	qkvCols := h + 2*s.KVDim()
	// Gated FFN computes gate and up projections (2f columns) before the
	// activation combines them.
	fcCols := s.FFNHidden()
	if s.GatedFFN {
		fcCols = 2 * s.FFNHidden()
	}
	return append(dst,
		Op{Name: "ln1", Kind: OpLayerNorm, Bytes: actBytes, Partition: PartNone},
		Op{Name: "qkv", Kind: OpGEMM, M: tokens, N: qkvCols, K: h, Partition: PartCols},
		attn,
		Op{Name: "attn_out", Kind: OpGEMM, M: tokens, N: h, K: h, Partition: PartRows, ReduceAfter: true},
		Op{Name: "res1", Kind: OpResidual, Bytes: actBytes, Partition: PartNone},
		Op{Name: "ln2", Kind: OpLayerNorm, Bytes: actBytes, Partition: PartNone},
		Op{Name: "fc1", Kind: OpGEMM, M: tokens, N: fcCols, K: h, Partition: PartCols},
		Op{Name: "gelu", Kind: OpGeLU, Bytes: int64(tokens) * int64(fcCols) * 2, Partition: PartNone},
		Op{Name: "fc2", Kind: OpGEMM, M: tokens, N: h, K: s.FFNHidden(), Partition: PartRows, ReduceAfter: true},
		Op{Name: "res2", Kind: OpResidual, Bytes: actBytes, Partition: PartNone},
	)
}

// PreOps appends the operators before the transformer stack (embedding
// lookup) to dst and returns the extended slice.
func PreOps(dst []Op, s Spec, w Workload) []Op {
	return append(dst, Op{Name: "embed", Kind: OpEmbedding, M: w.Tokens(), N: s.Hidden, Partition: PartNone,
		Bytes: int64(w.Tokens()) * int64(s.Hidden) * 2})
}

// PostOps appends the operators after the stack to dst and returns the
// extended slice: the final layernorm, and in decode mode the LM head
// projecting onto the vocabulary to sample the next token.
func PostOps(dst []Op, s Spec, w Workload) []Op {
	tokens := w.Tokens()
	dst = append(dst, Op{Name: "ln_f", Kind: OpLayerNorm, Bytes: int64(tokens) * int64(s.Hidden) * 2, Partition: PartNone})
	if w.Phase == Decode {
		dst = append(dst, Op{
			Name: "lm_head", Kind: OpGEMM, M: tokens, N: s.Vocab, K: s.Hidden,
			Partition: PartCols,
		})
	}
	return dst
}

// KVCacheBytes returns the per-request KV-cache footprint at context
// length ctx, across all layers. Grouped-query attention shrinks it by
// the head-grouping factor.
func (s Spec) KVCacheBytes(ctx int) int64 {
	return 2 * 2 * int64(s.Layers) * int64(ctx) * int64(s.KVDim())
}
