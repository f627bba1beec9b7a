package serve

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/simclock"
	"liger/internal/stats"
)

// SequenceWorkload is the workload continuous serving serves, on one
// decode node or on disaggregated pools: Sequences identical
// sequences of a PromptLen-token prompt and GenTokens decode tokens,
// arriving Poisson at RatePerSec with gaps drawn from Seed, at most
// MaxPool live per decode iteration.
type SequenceWorkload struct {
	Sequences            int
	RatePerSec           float64
	PromptLen, GenTokens int
	MaxPool              int
	Seed                 int64
}

// Validate reports a bad workload. Callers prefix the error with their
// own name.
func (w SequenceWorkload) Validate() error {
	switch {
	case w.Sequences <= 0:
		return fmt.Errorf("need sequences, got %d", w.Sequences)
	case w.RatePerSec <= 0:
		return fmt.Errorf("arrival rate %v", w.RatePerSec)
	case w.PromptLen <= 0 || w.GenTokens <= 0:
		return fmt.Errorf("bad lengths %d/%d", w.PromptLen, w.GenTokens)
	case w.MaxPool <= 0:
		return fmt.Errorf("pool size %d", w.MaxPool)
	}
	return nil
}

// Arrive schedules the sequence arrivals on eng: the first at time
// zero, then exponential gaps at RatePerSec. arrive runs at each
// arrival instant with the sequence id.
func (w SequenceWorkload) Arrive(eng *simclock.Engine, arrive func(id int, now simclock.Time)) {
	rng := rand.New(rand.NewSource(w.Seed))
	gap := time.Duration(float64(time.Second) / w.RatePerSec)
	var at simclock.Time
	for i := 0; i < w.Sequences; i++ {
		id := i
		eng.At(at, func(now simclock.Time) { arrive(id, now) })
		at += time.Duration(rng.ExpFloat64() * float64(gap))
	}
}

// Ledger is a generative run's per-sequence record: each sequence's
// arrival, first-token and finish instants, indexed by sequence id.
// Every generative driver keeps one — the single-node continuous run,
// the disaggregated frontend and generate.Run — and folds it into its
// result. A run in which any sequence never finished fails.
type Ledger struct {
	arrived, firstTok, finished []simclock.Time
	genTokens                   int
	completed                   int
}

// NewLedger returns the ledger of sequences sequences that decode
// genTokens tokens each.
func NewLedger(sequences, genTokens int) *Ledger {
	return &Ledger{
		arrived:   make([]simclock.Time, sequences),
		firstTok:  make([]simclock.Time, sequences),
		finished:  make([]simclock.Time, sequences),
		genTokens: genTokens,
	}
}

// Arrive stamps sequence id's arrival.
func (l *Ledger) Arrive(id int, now simclock.Time) { l.arrived[id] = now }

// FirstToken stamps sequence id's first token.
func (l *Ledger) FirstToken(id int, now simclock.Time) { l.firstTok[id] = now }

// Finish stamps sequence id's finish.
func (l *Ledger) Finish(id int, now simclock.Time) {
	l.finished[id] = now
	l.completed++
}

// Hooks returns batcher hooks that stamp each first token and finish.
func (l *Ledger) Hooks() ContinuousHooks {
	return ContinuousHooks{FirstToken: l.FirstToken, Finished: l.Finish}
}

// Fold returns each sequence's TTFT (arrival to first token), TPOT
// (first token to finish, per generated token) and total latency
// (arrival to finish), in sequence order. It fails unless every
// sequence finished. Callers prefix its errors, and Result's, with
// their own name.
func (l *Ledger) Fold() (ttft, tpot, total []time.Duration, err error) {
	if l.completed != len(l.finished) {
		return nil, nil, nil, fmt.Errorf("%d of %d sequences finished", l.completed, len(l.finished))
	}
	for i := range l.arrived {
		ttft = append(ttft, l.firstTok[i]-l.arrived[i])
		tpot = append(tpot, (l.finished[i]-l.firstTok[i])/time.Duration(l.genTokens))
		total = append(total, l.finished[i]-l.arrived[i])
	}
	return ttft, tpot, total, nil
}

// Result is the run-end check and fold of a continuous run served by
// nodes. The run fails on a node's batcher error, then on a sequence
// that never finished (Fold), then on a node's KV audit (AuditKV), so
// a cache still holding a sequence is reported as a leak only when
// every sequence finished. Latencies holds every sequence's total
// latency in sequence order, with its mean and percentiles; TTFT and
// TPOT are the means; Makespan is the latest finish. The decode
// counters sum over the nodes, and KVPeakBlocks is the highest node's
// cache high-water mark.
func (l *Ledger) Result(runtime string, nodes ...*DecodeNode) (Result, error) {
	for i, n := range nodes {
		if err := n.Batcher.Err(); err != nil {
			return Result{}, fmt.Errorf("decode node %d: %w", i, err)
		}
	}
	ttft, tpot, total, err := l.Fold()
	if err != nil {
		return Result{}, err
	}
	for i, n := range nodes {
		if err := AuditKV(n.KV); err != nil {
			return Result{}, fmt.Errorf("decode node %d: %w", i, err)
		}
	}
	pcts := stats.Percentiles(total, 50, 95, 99)
	res := Result{
		Runtime:    runtime,
		Completed:  len(total),
		Requests:   len(total),
		Latencies:  total,
		AvgLatency: stats.Mean(total),
		P50:        pcts[0],
		P95:        pcts[1],
		P99:        pcts[2],
		TTFT:       stats.Mean(ttft),
		TPOT:       stats.Mean(tpot),
		Continuous: true,
	}
	for _, f := range l.finished {
		res.Makespan = max(res.Makespan, f)
	}
	var poolSum int
	for _, n := range nodes {
		cb := n.Batcher
		res.Iterations += cb.Iterations
		poolSum += cb.PoolSum
		res.Preemptions += cb.Preemptions
		res.RecomputedTokens += cb.RecomputedTokens
		res.KVPeakBlocks = max(res.KVPeakBlocks, n.KV.PeakUsedBlocks())
	}
	if res.Iterations > 0 {
		res.MeanPool = float64(poolSum) / float64(res.Iterations)
	}
	return res, nil
}
