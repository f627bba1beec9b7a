// Package metrics turns a serving run plus its trace recording into a
// deterministic JSON snapshot: counters, gauges, latency histograms,
// and a per-request latency decomposition. It is the machine-readable
// companion to the Chrome traces — the numbers every perf PR cites.
package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"liger/internal/serve"
	"liger/internal/stats"
	"liger/internal/trace"
)

// Histogram summarizes a duration distribution in nanoseconds.
type Histogram struct {
	Count  int   `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// Request is one arrival's full latency decomposition: serving-side
// components (queue wait, recovery deferral, retries) from
// serve.Result.PerRequest, device-side components (compute, comm,
// stall) from the trace recorder's per-request span unions.
type Request struct {
	Req              int   `json:"req"`
	ArrivalNS        int64 `json:"arrival_ns"`
	DoneNS           int64 `json:"done_ns"`
	TotalNS          int64 `json:"total_ns"`
	QueueWaitNS      int64 `json:"queue_wait_ns"`
	DeferralNS       int64 `json:"deferral_ns"`
	ComputeNS        int64 `json:"compute_ns"`
	CommNS           int64 `json:"comm_ns"`
	StallNS          int64 `json:"stall_ns"`
	Retries          int   `json:"retries"`
	Failed           bool  `json:"failed"`
	Shed             bool  `json:"shed"`
	Kernels          int   `json:"kernels"`
	CancelledKernels int   `json:"cancelled_kernels"`
}

// Snapshot is the exported metrics document. Maps serialize with
// sorted keys (encoding/json), so WriteJSON output is byte-identical
// for identical runs.
type Snapshot struct {
	Runtime    string               `json:"runtime"`
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]Histogram `json:"histograms"`
	Requests   []Request            `json:"requests,omitempty"`
	// WindowNS / Windows carry the fixed-window time-series when
	// FromRun is called with Options.Window set.
	WindowNS int64    `json:"window_ns,omitempty"`
	Windows  []Window `json:"windows,omitempty"`
}

func summarize(ds []time.Duration) Histogram {
	if len(ds) == 0 {
		return Histogram{}
	}
	pcts := stats.Percentiles(ds, 50, 95, 99)
	return Histogram{
		Count:  len(ds),
		MeanNS: stats.Mean(ds).Nanoseconds(),
		P50NS:  pcts[0].Nanoseconds(),
		P95NS:  pcts[1].Nanoseconds(),
		P99NS:  pcts[2].Nanoseconds(),
		MaxNS:  stats.Max(ds).Nanoseconds(),
	}
}

// FromRun builds a snapshot from a serving result and the recorder
// that traced the run. rec may be nil, dropping the device-side
// decomposition and collective/fault counters. When opts.Window is set
// the windowed time-series is appended.
func FromRun(res serve.Result, rec *trace.Recorder, opts Options) *Snapshot {
	s := &Snapshot{
		Runtime: res.Runtime,
		Counters: map[string]int64{
			"completed":       int64(res.Completed),
			"requests":        int64(res.Requests),
			"failed":          int64(res.Failed),
			"shed":            int64(res.Shed),
			"deferred":        int64(res.Deferred),
			"retries":         int64(res.Retries),
			"deadline_misses": int64(res.DeadlineMisses),
			"failovers":       int64(res.Failovers),
		},
		Gauges: map[string]float64{
			"throughput_batches_per_s":  res.ThroughputBatches(),
			"throughput_requests_per_s": res.ThroughputRequests(),
			"makespan_s":                res.Makespan.Seconds(),
			"recovery_time_s":           res.RecoveryTime.Seconds(),
		},
		Histograms: map[string]Histogram{
			"latency": summarize(res.Latencies),
		},
	}
	var breakdown map[int]trace.ReqLatency
	if rec != nil {
		breakdown = rec.ReqBreakdown()
		c := rec.Counts()
		s.Counters["collectives_enqueued"] = int64(c.Enqueued)
		s.Counters["collectives_started"] = int64(c.Started)
		s.Counters["collectives_finished"] = int64(c.Finished)
		s.Counters["collectives_aborted"] = int64(c.Aborted)
		s.Counters["device_failures"] = int64(len(rec.Fails()))
		s.Counters["kernel_spans"] = int64(len(rec.Spans()))
		var cancelled int64
		for _, sp := range rec.Spans() {
			if sp.Cancelled != "" {
				cancelled++
			}
		}
		s.Counters["kernel_spans_cancelled"] = cancelled
	}
	var queueWaits, computes, comms, stalls []time.Duration
	for _, pr := range res.PerRequest {
		req := Request{
			Req:         pr.Req,
			ArrivalNS:   pr.Arrival.Nanoseconds(),
			DoneNS:      pr.Done.Nanoseconds(),
			TotalNS:     (pr.Done - pr.Arrival).Nanoseconds(),
			QueueWaitNS: pr.QueueWait.Nanoseconds(),
			DeferralNS:  pr.Deferral.Nanoseconds(),
			Retries:     pr.Retries,
			Failed:      pr.Failed,
			Shed:        pr.Shed,
		}
		if b, ok := breakdown[pr.Req]; ok {
			req.ComputeNS = time.Duration(b.Compute).Nanoseconds()
			req.CommNS = time.Duration(b.Comm).Nanoseconds()
			req.StallNS = time.Duration(b.Stall).Nanoseconds()
			req.Kernels = b.Kernels
			req.CancelledKernels = b.Cancelled
			computes = append(computes, time.Duration(b.Compute))
			comms = append(comms, time.Duration(b.Comm))
			stalls = append(stalls, time.Duration(b.Stall))
		}
		if !pr.Shed {
			queueWaits = append(queueWaits, pr.QueueWait)
		}
		s.Requests = append(s.Requests, req)
	}
	sort.Slice(s.Requests, func(i, j int) bool { return s.Requests[i].Req < s.Requests[j].Req })
	if len(queueWaits) > 0 {
		s.Histograms["queue_wait"] = summarize(queueWaits)
	}
	if len(computes) > 0 {
		s.Histograms["compute"] = summarize(computes)
		s.Histograms["comm"] = summarize(comms)
		s.Histograms["stall"] = summarize(stalls)
	}
	if opts.Window > 0 {
		s.WindowNS = opts.Window.Nanoseconds()
		s.Windows = windows(res, rec, opts.Window)
	}
	return s
}

// WriteJSON serializes the snapshot as indented JSON with a trailing
// newline. Output is byte-deterministic for identical snapshots.
func (s *Snapshot) WriteJSON(w io.Writer) error { return writeJSON(w, s) }

// writeJSON writes v as indented JSON with a trailing newline; maps
// marshal with sorted keys, so identical values give identical bytes.
func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
