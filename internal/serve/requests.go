package serve

import (
	"fmt"
	"math/rand"
	"time"

	"liger/internal/model"
	"liger/internal/runtimes"
	"liger/internal/simclock"
	"liger/internal/stats"
)

// Request is one inference request arriving at the serving frontend,
// before batching. The paper's workflow (Fig. 5) receives requests,
// packs them into a batch, and hands the batch to the runtime.
type Request struct {
	ID     int
	SeqLen int
}

// RequestTraceConfig describes a per-request trace (before batching).
type RequestTraceConfig struct {
	Requests       int
	RatePerSec     float64
	MinSeq, MaxSeq int
	Process        ArrivalProcess
	Seed           int64
}

// RequestArrival is one request arriving at the frontend.
type RequestArrival struct {
	At      simclock.Time
	Request Request
}

// GenerateRequests produces a deterministic per-request arrival trace.
func GenerateRequests(c RequestTraceConfig) ([]RequestArrival, error) {
	if c.Requests <= 0 || c.RatePerSec <= 0 || c.MinSeq <= 0 || c.MaxSeq < c.MinSeq {
		return nil, fmt.Errorf("serve: bad request trace config %+v", c)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	gap := time.Duration(float64(time.Second) / c.RatePerSec)
	out := make([]RequestArrival, 0, c.Requests)
	var at simclock.Time
	for i := 0; i < c.Requests; i++ {
		out = append(out, RequestArrival{
			At:      at,
			Request: Request{ID: i, SeqLen: c.MinSeq + rng.Intn(c.MaxSeq-c.MinSeq+1)},
		})
		switch c.Process {
		case Poisson:
			at += time.Duration(rng.ExpFloat64() * float64(gap))
		case Bursty:
			if (i+1)%4 == 0 {
				at += 4 * gap
			}
		default:
			at += gap
		}
	}
	return out, nil
}

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

// pack is the batching frontend, a pure function of the request trace
// (in arrival order). A batch closes at its maxBatch-th request, or
// maxWait after its oldest request, whichever comes first; a request
// arriving exactly at that deadline still joins. Requests in a batch are
// padded to the longest sequence among them, as batched transformer
// inference requires. pack returns the batch trace, each batch arriving
// at the instant it closes, and the batch each request joined.
func pack(reqs []RequestArrival, maxBatch int, maxWait time.Duration) ([]Arrival, []int, error) {
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
			w.SeqLen = max(w.SeqLen, reqs[i].Request.SeqLen)
			batchOf[i] = len(batches)
		}
		batches = append(batches, Arrival{At: at, Workload: w})
		open = end
	}
	for i, r := range reqs {
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
// arrive individually, pack groups them (up to maxBatch, waiting at most
// maxWait), Run serves the batch trace, and each request's latency is
// its batch's completion less its own arrival.
func RunRequests(eng *simclock.Engine, rt runtimes.Runtime, arrivals []RequestArrival, maxBatch int, maxWait time.Duration) (RequestResult, error) {
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
