package generate

import (
	"fmt"
	"time"

	"liger/internal/runtimes"
	"liger/internal/serve"
	"liger/internal/simclock"
)

// Continuous batching (Orca-style iteration-level scheduling, which the
// paper lists as orthogonal related work): instead of carrying a fixed
// batch through its whole generation, every decode iteration runs over
// the current pool of live sequences, admitting newly arrived sequences
// between iterations. Liger's interleaving composes with it — the
// iteration kernels are scheduled like any other batch. The scheduling
// loop itself lives in serve.ContinuousBatcher; this driver owns the
// arrival process and the per-sequence latency bookkeeping.

// ContinuousConfig shapes a continuous-batching run.
type ContinuousConfig struct {
	serve.SequenceWorkload
	// KV, if non-nil, gates admission on cache capacity. Only the prompt
	// is admitted up front; the cache then grows one token per decode
	// iteration, so a kvcache.PagedManager here admits far more
	// concurrency than reserving each sequence's worst-case prompt+gen
	// would — at the price of mid-decode preemption when blocks run out.
	KV serve.KVAllocator
	// Tracer, if non-nil, observes the batcher's iterations and sequence
	// lifecycles (trace.Recorder implements it along with the other
	// serving extensions). The caller wires the allocator's own
	// tracer separately (kvcache.PagedManager.SetTracer) since KV may be
	// any KVAllocator, including a test fake or a measuring decorator.
	// Tracing never perturbs the simulation.
	Tracer serve.ServingTracer
}

// Validate reports bad configurations.
func (c ContinuousConfig) Validate() error {
	if err := c.SequenceWorkload.Validate(); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	return nil
}

// RunContinuous executes the workload on the runtime attached to eng
// and returns its serve.SequenceResult. It owns the runtime's
// completion callback for the duration. A run whose KV allocator fails
// the run-end audit (serve.AuditKV) fails.
func RunContinuous(eng *simclock.Engine, rt runtimes.Runtime, cfg ContinuousConfig) (serve.Result, error) {
	res, _, err := runContinuous(eng, rt, cfg)
	return res, err
}

// runContinuous is RunContinuous that also returns each sequence's TTFT
// as the driver measured it, in sequence order.
func runContinuous(eng *simclock.Engine, rt runtimes.Runtime, cfg ContinuousConfig) (serve.Result, []time.Duration, error) {
	if err := cfg.Validate(); err != nil {
		return serve.Result{}, nil, err
	}
	arrived := make([]simclock.Time, cfg.Sequences)
	firstTok := make([]simclock.Time, cfg.Sequences)
	finished := make([]simclock.Time, cfg.Sequences)
	completed := 0
	cb, err := serve.NewContinuousBatcher(rt, cfg.KV, cfg.MaxPool, serve.ContinuousHooks{
		FirstToken: func(id int, now simclock.Time) { firstTok[id] = now },
		Finished: func(id int, now simclock.Time) {
			finished[id] = now
			completed++
		},
	})
	if err != nil {
		return serve.Result{}, nil, err
	}
	if cfg.Tracer != nil {
		cb.SetTracer(cfg.Tracer, 0)
	}
	rt.SetOnDone(cb.OnDone)

	cfg.Arrive(eng, func(id int, now simclock.Time) {
		arrived[id] = now
		cb.Add(serve.GenSeq{ID: id, Prompt: cfg.PromptLen, Gen: cfg.GenTokens}, now)
	})
	eng.Run()
	if err := cb.Err(); err != nil {
		return serve.Result{}, nil, err
	}
	if err := serve.AuditKV(cfg.KV); err != nil {
		return serve.Result{}, nil, fmt.Errorf("generate: %w", err)
	}
	if completed != cfg.Sequences {
		return serve.Result{}, nil, fmt.Errorf("generate: %d of %d sequences finished", completed, cfg.Sequences)
	}
	ttft, _, _ := serve.FoldSequences(arrived, firstTok, finished, cfg.GenTokens)
	return serve.SequenceResult(rt.Name(), arrived, firstTok, finished, cfg.GenTokens, cb), ttft, nil
}
