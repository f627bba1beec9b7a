package serve

import (
	"fmt"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
	"liger/internal/stats"
)

// RequestResult summarizes a request-level run: latency here is per
// *request* — frontend arrival to batch completion — so it includes the
// batching delay on top of pending and execution time.
type RequestResult struct {
	Runtime       string
	Completed     int
	Batches       int
	AvgLatency    time.Duration
	P50, P95, P99 time.Duration
	Makespan      time.Duration
	// AvgBatchingDelay is the mean time requests waited in the batcher.
	AvgBatchingDelay time.Duration
}

// pack is the batching frontend, a pure function of the request trace:
// one-request context arrivals (Generate with BatchSize 1), in arrival
// order. A batch closes at its maxBatch-th request, or maxWait after its
// oldest request, whichever comes first; a request arriving exactly at
// that deadline still joins. Requests in a batch are
// padded to the longest sequence among them, as batched transformer
// inference requires. pack returns the batch trace, each batch arriving
// at the instant it closes, and the batch each request joined.
func pack(reqs []Arrival, maxBatch int, maxWait time.Duration) ([]Arrival, []int, error) {
	if maxBatch < 1 {
		return nil, nil, fmt.Errorf("serve: batcher max batch %d", maxBatch)
	}
	if maxWait <= 0 {
		return nil, nil, fmt.Errorf("serve: batcher max wait %v", maxWait)
	}
	var batches []Arrival
	batchOf := make([]int, len(reqs))
	open := 0 // the oldest request of the open batch
	closeBatch := func(end int, at simclock.Time) {
		w := model.Workload{Batch: end - open, Phase: model.Context}
		for i := open; i < end; i++ {
			w.SeqLen = max(w.SeqLen, reqs[i].Workload.SeqLen)
			batchOf[i] = len(batches)
		}
		batches = append(batches, Arrival{At: at, Workload: w})
		open = end
	}
	for i, r := range reqs {
		if r.Workload.Batch != 1 || r.Workload.Phase != model.Context {
			return nil, nil, fmt.Errorf("serve: request %d is a %d-request %s arrival, want one context request",
				i, r.Workload.Batch, r.Workload.Phase)
		}
		if i > 0 && r.At < reqs[i-1].At {
			return nil, nil, fmt.Errorf("serve: request %d arrives at %v, before request %d", i, r.At, i-1)
		}
		if deadline := reqs[open].At + simclock.Time(maxWait); r.At > deadline {
			closeBatch(i, deadline)
		}
		if i+1-open == maxBatch {
			closeBatch(i+1, r.At)
		}
	}
	if open < len(reqs) {
		closeBatch(len(reqs), reqs[open].At+simclock.Time(maxWait))
	}
	return batches, batchOf, nil
}

// RunRequests drives a runtime through the batching frontend: requests
// arrive individually, as one-request context arrivals; pack groups them
// (up to maxBatch, waiting at most maxWait), Run serves the batch trace,
// and each request's latency is its batch's completion less its own
// arrival.
func RunRequests(eng *simclock.Engine, rt runtimes.Runtime, arrivals []Arrival, maxBatch int, maxWait time.Duration) (RequestResult, error) {
	res := RequestResult{Runtime: rt.Name()}
	if len(arrivals) == 0 {
		return res, fmt.Errorf("serve: empty request trace")
	}
	batches, batchOf, err := pack(arrivals, maxBatch, maxWait)
	if err != nil {
		return res, err
	}
	served, err := Run(eng, rt, batches)
	if err != nil {
		return res, err
	}
	latencies := make([]time.Duration, len(arrivals))
	waits := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		b := served.PerRequest[batchOf[i]]
		latencies[i] = b.Done - time.Duration(a.At)
		waits[i] = b.Arrival - time.Duration(a.At)
	}
	res.Completed = served.Requests
	res.Batches = len(batches)
	res.AvgLatency = stats.Mean(latencies)
	pcts := stats.Percentiles(latencies, 50, 95, 99)
	res.P50, res.P95, res.P99 = pcts[0], pcts[1], pcts[2]
	res.AvgBatchingDelay = stats.Mean(waits)
	res.Makespan = served.Makespan + time.Duration(batches[0].At-arrivals[0].At)
	return res, nil
}
