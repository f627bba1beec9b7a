// Package generate drives static generative conversations over any
// runtime: each conversation is a batch of requests that runs the
// initial conditioning (prefill) phase over its prompt and then samples
// tokens one at a time against a growing KV cache (§4.3). Decode
// iterations are submitted dynamically — each step when the previous
// completes — so the Liger runtime interleaves steps of different
// conversations. KV-cache admission control queues conversations that
// do not fit. Continuous (iteration-level) serving is serve.DecodeNode;
// both keep a serve.Ledger.
package generate

import (
	"fmt"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/stats"
)

// Config shapes the generation workload.
type Config struct {
	// Conversations is the number of batched generations to run.
	Conversations int
	// BatchSize is the number of requests batched per conversation.
	BatchSize int
	// PromptLen is the prefill length per request.
	PromptLen int
	// GenTokens is the number of decode iterations per conversation.
	GenTokens int
	// ArrivalGap spaces conversation arrivals.
	ArrivalGap time.Duration
	// KV, if non-nil, enforces cache admission. Run admits a whole
	// conversation's prompt+gen tokens at once and releases them when
	// it finishes, so conversations queue until their whole generation
	// fits (a worst-case reservation policy over any allocator, typically
	// a kvcache.PagedManager).
	KV serve.KVAllocator
}

// Validate reports bad configurations.
func (c Config) Validate() error {
	switch {
	case c.Conversations <= 0:
		return fmt.Errorf("generate: need conversations")
	case c.BatchSize <= 0:
		return fmt.Errorf("generate: batch size %d", c.BatchSize)
	case c.PromptLen <= 0:
		return fmt.Errorf("generate: prompt length %d", c.PromptLen)
	case c.GenTokens <= 0:
		return fmt.Errorf("generate: generation length %d", c.GenTokens)
	case c.ArrivalGap < 0:
		return fmt.Errorf("generate: negative arrival gap")
	}
	return nil
}

// Result aggregates per-conversation generation metrics.
type Result struct {
	Conversations int
	// TTFT is the time-to-first-token distribution (arrival → prefill
	// completion, including any KV admission queueing).
	TTFT []time.Duration
	// TPOT is the per-output-token time distribution.
	TPOT []time.Duration
	// Total is the end-to-end generation time distribution.
	Total []time.Duration
	// QueuedForKV counts conversations that had to wait for cache.
	QueuedForKV int
}

// AvgTTFT returns the mean time to first token.
func (r Result) AvgTTFT() time.Duration { return stats.Mean(r.TTFT) }

// AvgTPOT returns the mean time per output token.
func (r Result) AvgTPOT() time.Duration { return stats.Mean(r.TPOT) }

// AvgTotal returns the mean end-to-end generation time.
func (r Result) AvgTotal() time.Duration { return stats.Mean(r.Total) }

type conversation struct {
	id   int
	step int
}

// Run executes the workload on the runtime attached to eng. It owns the
// runtime's completion callback for the duration of the run. Unlike a
// continuous decode node (serve.DecodeNode), every conversation carries
// its own batch through its whole generation, so several conversations'
// iterations are in flight at once — the concurrency Liger interleaves.
// A run in which a conversation never finished, or whose KV allocator
// fails the run-end audit (serve.AuditKV), fails.
func Run(eng *simclock.Engine, rt runtimes.Runtime, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{}
	perConv := cfg.BatchSize * (cfg.PromptLen + cfg.GenTokens)

	ledger := serve.NewLedger(cfg.Conversations, cfg.GenTokens)
	outstanding := map[int]*conversation{}
	var admitQueue []*conversation
	pendingID := 0
	var runErr error

	submitStep := func(c *conversation) {
		var w model.Workload
		if c.step == 0 {
			w = model.Workload{Batch: cfg.BatchSize, SeqLen: cfg.PromptLen, Phase: model.Context}
		} else {
			w = model.Workload{Batch: cfg.BatchSize, CtxLen: cfg.PromptLen + c.step - 1, Phase: model.Decode}
		}
		outstanding[pendingID] = c
		pendingID++
		if err := rt.Submit(w); err != nil && runErr == nil {
			runErr = err
		}
	}

	admit := func(c *conversation) bool {
		if cfg.KV != nil {
			if !cfg.KV.CanAdmit(perConv) {
				return false
			}
			if err := cfg.KV.Admit(c.id, perConv); err != nil {
				if runErr == nil {
					runErr = err
				}
				return false
			}
		}
		submitStep(c)
		return true
	}

	rt.SetOnDone(func(done runtimes.Completion) {
		c := outstanding[done.ID]
		if c == nil {
			if runErr == nil {
				runErr = fmt.Errorf("generate: completion for unknown submission %d", done.ID)
			}
			return
		}
		delete(outstanding, done.ID)
		if c.step == 0 {
			ledger.FirstToken(c.id, done.Done)
		}
		c.step++
		if c.step > cfg.GenTokens {
			ledger.Finish(c.id, done.Done)
			if cfg.KV != nil {
				cfg.KV.Release(c.id)
			}
			for len(admitQueue) > 0 && admit(admitQueue[0]) {
				admitQueue = admitQueue[1:]
			}
			return
		}
		submitStep(c)
	})

	for i := 0; i < cfg.Conversations; i++ {
		i := i
		eng.At(simclock.Time(i)*simclock.Time(cfg.ArrivalGap), func(now simclock.Time) {
			c := &conversation{id: i}
			ledger.Arrive(i, now)
			if !admit(c) {
				res.QueuedForKV++
				admitQueue = append(admitQueue, c)
			}
		})
	}
	eng.Run()
	if runErr != nil {
		return res, runErr
	}
	ttft, tpot, total, err := ledger.Fold()
	if err != nil {
		return res, fmt.Errorf("generate: %w", err)
	}
	if err := serve.AuditKV(cfg.KV); err != nil {
		return res, fmt.Errorf("generate: %w", err)
	}
	res.Conversations = cfg.Conversations
	res.TTFT, res.TPOT, res.Total = ttft, tpot, total
	return res, nil
}
