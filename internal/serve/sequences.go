package serve

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/simclock"
	"liger/internal/stats"
)

// SequenceWorkload is the workload both generative drivers serve
// (generate.RunContinuous, cluster.Disagg): Sequences identical
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

// FoldSequences returns each sequence's TTFT (arrival to first token),
// TPOT (first token to finish, per generated token) and total latency
// (arrival to finish), in sequence order, from index-aligned instants.
func FoldSequences(arrived, firstTok, finished []simclock.Time, genTokens int) (ttft, tpot, total []time.Duration) {
	for i := range arrived {
		ttft = append(ttft, firstTok[i]-arrived[i])
		tpot = append(tpot, (finished[i]-firstTok[i])/time.Duration(genTokens))
		total = append(total, finished[i]-arrived[i])
	}
	return ttft, tpot, total
}

// SequenceResult folds a finished generative run into a Result
// (FoldSequences). Latencies holds every sequence's total latency in
// sequence order, with its mean and percentiles; TTFT and TPOT are the
// means; Makespan is the latest finish. The decode counters sum over
// the batchers that served the run.
func SequenceResult(runtime string, arrived, firstTok, finished []simclock.Time, genTokens int, batchers ...*ContinuousBatcher) Result {
	ttft, tpot, total := FoldSequences(arrived, firstTok, finished, genTokens)
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
	for _, f := range finished {
		res.Makespan = max(res.Makespan, f)
	}
	var poolSum int
	for _, cb := range batchers {
		res.Iterations += cb.Iterations
		poolSum += cb.PoolSum
		res.Preemptions += cb.Preemptions
		res.RecomputedTokens += cb.RecomputedTokens
	}
	if res.Iterations > 0 {
		res.MeanPool = float64(poolSum) / float64(res.Iterations)
	}
	return res
}
