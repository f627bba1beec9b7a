package kvcache

import (
	"errors"
	"fmt"

	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/simclock"
)

// Paged allocation (vLLM-style): the KV budget is carved into
// fixed-size blocks of BlockTokens tokens each, and every live sequence
// owns a block table — an ordered list of block ids — that grows one
// block at a time as decoding extends the sequence. A sequence only
// ever holds ceil(tokens/BlockTokens) blocks, so memory that a
// worst-case prompt+gen reservation would pin stays free for admitting
// more concurrent sequences; the price is that the allocator can run
// out mid-decode, which the serving layer resolves by preempting the
// lowest-priority sequence (recompute-on-resume).

// ErrNoFreeBlocks is the sentinel wrapped by Extend/Admit when the
// block pool is exhausted. The continuous batcher treats it as a
// preemption trigger, not a run error.
var ErrNoFreeBlocks = errors.New("kvcache: out of cache blocks")

// PagedConfig shapes a paged allocator.
type PagedConfig struct {
	// BlockTokens is the tokens-per-block granularity (default 16).
	BlockTokens int
	// Watermark is the free-block fraction under which UnderPressure
	// reports true, letting the scheduler preempt proactively before
	// Extend hard-fails mid-iteration (default 0.05).
	Watermark float64
}

// pagedSeq is one live sequence's allocation state.
type pagedSeq struct {
	tokens int
	blocks []int // block table, allocation-ordered
}

// PagedManager is the KV allocator for one node. It accounts
// per-device bytes in whole blocks and supports preemption of the
// lowest-priority live sequence.
type PagedManager struct {
	spec model.Spec
	node hw.Node

	bytesPerToken int64
	blockTokens   int
	blockBytes    int64
	totalBlocks   int
	watermark     int // free-block threshold for UnderPressure

	// Free blocks: the released ones in free, LIFO, on top of the
	// never-used ids fresh..totalBlocks-1, handed out in ascending order
	// once free is empty.
	free  []int
	fresh int
	seqs  map[int]*pagedSeq
	// spare recycles released sequences' records and block tables, so
	// steady-state admission allocates nothing.
	spare []*pagedSeq
	// order is the admission order of live sequences, oldest first;
	// Preempt evicts the newest (lowest priority).
	order []int

	violations  violations
	preemptions int

	// tracer/now observe block transitions (SetTracer); peakUsed is the
	// allocation high-water mark in blocks.
	tracer   Tracer
	now      func() simclock.Time
	peakUsed int
}

// NewPaged sizes a paged allocator: the budget is device memory minus
// the weight shard and the activation workspace for the given maximum
// batch shape, carved into whole blocks.
func NewPaged(node hw.Node, spec model.Spec, maxBatch, maxSeq int, cfg PagedConfig) (*PagedManager, error) {
	budget, err := budgetFor(node, spec, maxBatch, maxSeq)
	if err != nil {
		return nil, err
	}
	if cfg.BlockTokens == 0 {
		cfg.BlockTokens = 16
	}
	if cfg.BlockTokens < 1 {
		return nil, fmt.Errorf("kvcache: block size %d tokens", cfg.BlockTokens)
	}
	if cfg.Watermark == 0 {
		cfg.Watermark = 0.05
	}
	if cfg.Watermark < 0 || cfg.Watermark >= 1 {
		return nil, fmt.Errorf("kvcache: watermark %v outside [0, 1)", cfg.Watermark)
	}
	devs := int64(node.NumGPUs)
	if devs < 1 {
		devs = 1
	}
	bpt := spec.KVCacheBytes(1) / devs
	blockBytes := int64(cfg.BlockTokens) * bpt
	if blockBytes <= 0 {
		return nil, fmt.Errorf("kvcache: zero-byte block serving %s", spec.Name)
	}
	total := int(budget / blockBytes)
	if total < 1 {
		return nil, fmt.Errorf("kvcache: budget %d MB below one %d-token block serving %s on %s",
			budget>>20, cfg.BlockTokens, spec.Name, node.Name)
	}
	m := &PagedManager{
		spec:          spec,
		node:          node,
		bytesPerToken: bpt,
		blockTokens:   cfg.BlockTokens,
		blockBytes:    blockBytes,
		totalBlocks:   total,
		watermark:     int(cfg.Watermark * float64(total)),
		seqs:          map[int]*pagedSeq{},
	}
	return m, nil
}

// blocksFor returns the block count covering tokens of cache.
func (m *PagedManager) blocksFor(tokens int) int {
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

// BlockTokens returns the tokens-per-block granularity.
func (m *PagedManager) BlockTokens() int { return m.blockTokens }

// TotalBlocks returns the pool size in blocks.
func (m *PagedManager) TotalBlocks() int { return m.totalBlocks }

// FreeBlocks returns how many blocks are unallocated.
func (m *PagedManager) FreeBlocks() int { return len(m.free) + m.totalBlocks - m.fresh }

// Budget returns the per-device KV byte budget rounded to whole blocks.
func (m *PagedManager) Budget() int64 { return int64(m.totalBlocks) * m.blockBytes }

// BytesPerToken returns the per-device cache cost of one token.
func (m *PagedManager) BytesPerToken() int64 { return m.bytesPerToken }

// UsedBytes returns the per-device bytes held by allocated blocks
// (block-granular: a partially filled block counts whole).
func (m *PagedManager) UsedBytes() int64 {
	return int64(m.totalBlocks-m.FreeBlocks()) * m.blockBytes
}

// Live returns the number of admitted sequences.
func (m *PagedManager) Live() int { return len(m.seqs) }

// Tokens returns a sequence's cached length (0 if unknown).
func (m *PagedManager) Tokens(seqID int) int {
	s, ok := m.seqs[seqID]
	if !ok {
		return 0
	}
	return s.tokens
}

// BlockTable returns a copy of a sequence's block table (nil if
// unknown).
func (m *PagedManager) BlockTable(seqID int) []int {
	s, ok := m.seqs[seqID]
	if !ok {
		return nil
	}
	return append([]int(nil), s.blocks...)
}

// CanAdmit reports whether a sequence needing tokens of cache fits now.
func (m *PagedManager) CanAdmit(tokens int) bool {
	return tokens > 0 && m.blocksFor(tokens) <= m.FreeBlocks()
}

// Admit allocates a new sequence's prompt blocks. Only the prompt is
// allocated — generation grows the table one block at a time through
// Extend.
func (m *PagedManager) Admit(seqID, promptTokens int) error {
	if promptTokens <= 0 {
		return fmt.Errorf("kvcache: sequence %d needs positive prompt length", seqID)
	}
	if _, ok := m.seqs[seqID]; ok {
		return fmt.Errorf("kvcache: sequence %d already admitted", seqID)
	}
	need := m.blocksFor(promptTokens)
	if free := m.FreeBlocks(); need > free {
		return fmt.Errorf("%w: sequence %d needs %d blocks, %d free", ErrNoFreeBlocks, seqID, need, free)
	}
	s := m.newSeq()
	s.tokens = promptTokens
	for i := 0; i < need; i++ {
		s.blocks = append(s.blocks, m.pop())
	}
	m.seqs[seqID] = s
	m.order = append(m.order, seqID)
	m.emit(KVAdmit, seqID, need, promptTokens)
	return nil
}

// Extend grows a sequence's cache by one generated token, allocating a
// fresh block when the tail block is full. An ErrNoFreeBlocks return
// leaves the sequence untouched — the caller preempts and retries.
func (m *PagedManager) Extend(seqID int) error {
	s, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not admitted", seqID)
	}
	grew := false
	if s.tokens+1 > len(s.blocks)*m.blockTokens {
		if m.FreeBlocks() == 0 {
			return fmt.Errorf("%w: extending sequence %d at %d tokens", ErrNoFreeBlocks, seqID, s.tokens)
		}
		s.blocks = append(s.blocks, m.pop())
		grew = true
	}
	s.tokens++
	if grew {
		m.emit(KVExtend, seqID, 1, s.tokens)
	}
	return nil
}

// Release frees a finished sequence's blocks. Releasing an id that was
// never admitted (or already released) is a double release: the blocks
// were returned once already, so the call records an invariant
// violation instead of silently ignoring the corruption.
func (m *PagedManager) Release(seqID int) {
	s, ok := m.seqs[seqID]
	if !ok {
		m.violations.record(fmt.Errorf("kvcache: release of unknown sequence %d (double release?)", seqID))
		return
	}
	tokens, freed := s.tokens, len(s.blocks)
	m.reclaim(seqID, s)
	m.emit(KVRelease, seqID, -freed, tokens)
}

// Preempt evicts the lowest-priority (most recently admitted) live
// sequence, freeing its whole block table, and returns its id and
// cached token count — the recompute obligation its owner pays on
// resume. ok is false when nothing is live.
func (m *PagedManager) Preempt() (seqID, tokens int, ok bool) {
	if len(m.order) == 0 {
		return 0, 0, false
	}
	seqID = m.order[len(m.order)-1]
	s := m.seqs[seqID]
	tokens = s.tokens
	freed := len(s.blocks)
	m.reclaim(seqID, s)
	m.preemptions++
	m.emit(KVPreempt, seqID, -freed, tokens)
	return seqID, tokens, true
}

// UnderPressure reports whether free blocks have fallen under the
// watermark — the scheduler's cue to evict before Extend fails.
func (m *PagedManager) UnderPressure() bool { return m.FreeBlocks() < m.watermark }

// Preemptions counts sequences evicted by Preempt.
func (m *PagedManager) Preemptions() int { return m.preemptions }

// MaxResidentSequences returns how many sequences of the given total
// length (prompt + generation) can hold blocks simultaneously.
func (m *PagedManager) MaxResidentSequences(totalTokens int) int {
	if totalTokens <= 0 {
		return 0
	}
	return m.totalBlocks / m.blocksFor(totalTokens)
}

// Violations returns how many accounting-invariant breaches the
// allocator has recorded (0 in a healthy run).
func (m *PagedManager) Violations() int { return m.violations.count }

// InvariantErr returns the first recorded invariant violation.
func (m *PagedManager) InvariantErr() error { return m.violations.first }

// pop allocates a block: the last one released, else the lowest
// never-used id — the order of a stack that starts with every id,
// lowest on top, so block tables read naturally and stay deterministic.
func (m *PagedManager) pop() int {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		return id
	}
	id := m.fresh
	m.fresh++
	return id
}

// newSeq returns an empty sequence record, recycled when one is spare.
func (m *PagedManager) newSeq() *pagedSeq {
	if n := len(m.spare); n > 0 {
		s := m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
		return s
	}
	return &pagedSeq{}
}

func (m *PagedManager) reclaim(seqID int, s *pagedSeq) {
	// Return blocks in reverse table order so a release-then-admit of
	// the same shape reuses the same ids.
	for i := len(s.blocks) - 1; i >= 0; i-- {
		m.free = append(m.free, s.blocks[i])
	}
	s.tokens, s.blocks = 0, s.blocks[:0]
	m.spare = append(m.spare, s)
	delete(m.seqs, seqID)
	for i, id := range m.order {
		if id == seqID {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}
