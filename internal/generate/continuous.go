package generate

import (
	"fmt"
	"math/rand"
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
	// Sequences is the number of generations to serve.
	Sequences int
	// RatePerSec is the sequence arrival rate.
	RatePerSec float64
	// PromptLen and GenTokens shape each sequence.
	PromptLen int
	GenTokens int
	// MaxPool caps live sequences per iteration.
	MaxPool int
	// KV, if non-nil, gates admission on cache capacity. Only the prompt
	// is admitted up front; the cache then grows one token per decode
	// iteration, so a kvcache.PagedManager here admits far more
	// concurrency than reserving each sequence's worst-case prompt+gen
	// would — at the price of mid-decode preemption when blocks run out.
	KV serve.KVAllocator
	// Seed jitters arrivals (Poisson).
	Seed int64
	// Tracer, if non-nil, observes the batcher's iterations and sequence
	// lifecycles (trace.ServingRecorder implements it along with the
	// other serving extensions). The caller wires the allocator's own
	// tracer separately (kvcache.PagedManager.SetTracer) since KV may be
	// any KVAllocator, including a test fake or a measuring decorator.
	// Tracing never perturbs the simulation.
	Tracer serve.ServingTracer
}

// Validate reports bad configurations.
func (c ContinuousConfig) Validate() error {
	switch {
	case c.Sequences <= 0:
		return fmt.Errorf("generate: need sequences")
	case c.RatePerSec <= 0:
		return fmt.Errorf("generate: arrival rate %v", c.RatePerSec)
	case c.PromptLen <= 0 || c.GenTokens <= 0:
		return fmt.Errorf("generate: bad lengths %d/%d", c.PromptLen, c.GenTokens)
	case c.MaxPool <= 0:
		return fmt.Errorf("generate: pool size %d", c.MaxPool)
	}
	return nil
}

// ContinuousResult aggregates a run.
type ContinuousResult struct {
	Result
	// Iterations counts decode steps executed.
	Iterations int
	// MeanPool is the average live-pool size over iterations.
	MeanPool float64
	// PrefillBatches counts context-phase submissions (admission waves).
	PrefillBatches int
	// Preemptions counts sequences evicted under memory pressure;
	// RecomputedTokens is the total prefill work their resumes repaid.
	Preemptions      int
	RecomputedTokens int
	// Makespan is the completion time of the last sequence.
	Makespan time.Duration
}

// RunContinuous executes the workload on the runtime attached to eng.
// It owns the runtime's completion callback for the duration. A run
// whose KV allocator fails the run-end audit (serve.AuditKV) fails.
func RunContinuous(eng *simclock.Engine, rt runtimes.Runtime, cfg ContinuousConfig) (ContinuousResult, error) {
	res := ContinuousResult{}
	if err := cfg.Validate(); err != nil {
		return res, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

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
		return res, err
	}
	if cfg.Tracer != nil {
		cb.SetTracer(cfg.Tracer, 0)
	}
	rt.SetOnDone(cb.OnDone)

	var at simclock.Time
	gap := time.Duration(float64(time.Second) / cfg.RatePerSec)
	for i := 0; i < cfg.Sequences; i++ {
		id := i
		eng.At(at, func(now simclock.Time) {
			arrived[id] = now
			cb.Add(serve.GenSeq{ID: id, Prompt: cfg.PromptLen, Gen: cfg.GenTokens}, now)
		})
		at += time.Duration(rng.ExpFloat64() * float64(gap))
	}
	eng.Run()
	if err := cb.Err(); err != nil {
		return res, err
	}
	if err := serve.AuditKV(cfg.KV); err != nil {
		return res, fmt.Errorf("generate: %w", err)
	}
	if completed != cfg.Sequences {
		return res, fmt.Errorf("generate: %d of %d sequences finished", completed, cfg.Sequences)
	}
	res.Makespan = res.Fold(arrived, firstTok, finished, cfg.GenTokens)
	res.Iterations = cb.Iterations
	res.MeanPool = cb.MeanPool()
	res.PrefillBatches = cb.PrefillBatches
	res.Preemptions = cb.Preemptions
	res.RecomputedTokens = cb.RecomputedTokens
	return res, nil
}
