package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"

	"liger/internal/analyze"
	"liger/internal/serve"
	"liger/internal/trace"
)

// Serving-layer metrics: a snapshot distilled from a trace.Recorder's
// serving streams rather than from its device trace. Those streams
// hold the batcher's iteration records, per-sequence lifecycle events,
// KV block events, router decisions and KV handoffs; this file folds
// them into the same Counters/Gauges/Histograms shape as Snapshot plus
// a serving-specific windowed time-series (per-pool utilization, KV
// occupancy, pool size, preemption rate, shed/hedge counts).

// ServingWindow is one fixed-width bucket of the serving time-series.
type ServingWindow struct {
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Iterations counts decode iterations ending in the window;
	// MeanPool is their average batch size (0 when none ended).
	Iterations int     `json:"iterations"`
	MeanPool   float64 `json:"mean_pool"`
	// Preemptions counts sequences evicted in the window; Sheds and
	// Hedges count the router's load-shed and hedge decisions.
	Preemptions int `json:"preemptions"`
	Sheds       int `json:"sheds"`
	Hedges      int `json:"hedges"`
	// KVPeakBlocks is the highest block occupancy observed in the
	// window (carried forward from the last event when the window has
	// none, so the series never drops to zero between events).
	KVPeakBlocks int `json:"kv_peak_blocks"`
	// Utilization maps pool_<i> to the share of the window that pool
	// spent executing iterations.
	Utilization map[string]float64 `json:"utilization,omitempty"`
}

// ServingSnapshot is the serving-layer analogue of Snapshot.
type ServingSnapshot struct {
	Runtime    string               `json:"runtime,omitempty"`
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]Histogram `json:"histograms"`
	WindowNS   int64                `json:"window_ns,omitempty"`
	Windows    []ServingWindow      `json:"windows,omitempty"`
}

// FromServing distills a recorder's serving streams into a snapshot. The
// request histograms and the KV, handoff and router counters come from
// the serving analyzer's per-request walk (analyze.AnalyzeServing), so
// the two reports cannot disagree. Every driver fails a run that
// leaves a sequence unfinished, so the walk's requests are the
// finished ones. The recorder is normalized first, so the result is
// byte-deterministic regardless of how many workers or shards produced
// the events. When opts.Window is set the windowed time-series is
// appended.
func FromServing(runtime string, rec *trace.Recorder, opts Options) *ServingSnapshot {
	s := &ServingSnapshot{
		Runtime:    runtime,
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]Histogram{},
	}
	if rec == nil {
		return s
	}
	rep := analyze.AnalyzeServing(rec)

	// Iteration stream: counts and the pool-size gauge.
	poolSum, decodes := 0, 0
	for _, it := range rec.Iterations() {
		if it.Prefill {
			s.Counters["prefill_batches"]++
		} else {
			s.Counters["iterations"]++
			poolSum += it.Batch
			decodes++
		}
		s.Counters["admitted"] += int64(it.Admitted)
		s.Counters["retired"] += int64(it.Retired)
	}
	if decodes > 0 {
		s.Gauges["mean_pool"] = float64(poolSum) / float64(decodes)
	}

	// KV stream: block gauges. The analyzer's "preemptions" counts KV
	// evictions; here that is kv_preemptions, and preemptions counts
	// the sequences' preempt instants.
	peak, total := 0, 0
	for _, e := range rec.KVEvents() {
		if e.Used > peak {
			peak = e.Used
		}
		if t := e.Used + e.Free; t > total {
			total = t
		}
	}
	if peak > 0 {
		s.Gauges["kv_peak_blocks"] = float64(peak)
	}
	if total > 0 {
		s.Gauges["kv_total_blocks"] = float64(total)
	}
	for k, v := range rep.Counters {
		if k == "preemptions" {
			k = "kv_preemptions"
		}
		s.Counters[k] = v
	}

	// Per-request latency histograms: arrival -> first prefill
	// completion -> last finish.
	var ttfts, tpots, totals []time.Duration
	preemptions := 0
	for _, r := range rep.Requests {
		ttfts = append(ttfts, time.Duration(r.TTFTNS))
		tpots = append(tpots, time.Duration(r.TPOTNS))
		totals = append(totals, time.Duration(r.TotalNS))
		preemptions += r.Preemptions
	}
	if preemptions > 0 {
		s.Counters["preemptions"] = int64(preemptions)
	}
	if len(totals) > 0 {
		s.Counters["requests"] = int64(len(totals))
		s.Histograms["ttft"] = summarize(ttfts)
		s.Histograms["tpot"] = summarize(tpots)
		s.Histograms["total"] = summarize(totals)
	}

	if opts.Window > 0 {
		s.WindowNS = opts.Window.Nanoseconds()
		s.Windows = servingWindows(rec, opts.Window)
	}
	return s
}

// servingWindows cuts the recorded streams into fixed-width buckets.
func servingWindows(rec *trace.Recorder, width time.Duration) []ServingWindow {
	var span time.Duration
	grow := func(t time.Duration) {
		if t > span {
			span = t
		}
	}
	for _, it := range rec.Iterations() {
		grow(time.Duration(it.End))
	}
	for _, ev := range rec.SeqEvents() {
		grow(time.Duration(ev.At))
	}
	for _, d := range rec.RouterDecisions() {
		grow(time.Duration(d.At))
	}
	for _, h := range rec.KVHandoffs() {
		grow(time.Duration(h.End))
	}
	g := newGrid(span, width)
	if g.n == 0 {
		return nil
	}
	ws := make([]ServingWindow, g.n)
	for i := range ws {
		ws[i].StartNS, ws[i].EndNS = g.bounds(i)
	}

	// Iterations bucket by completion; pool sizes average per window.
	poolSum := make([]int, g.n)
	pools := map[int]bool{}
	busy := map[int][]time.Duration{} // pool -> busy ns per window
	for _, it := range rec.Iterations() {
		pools[it.Pool] = true
		if !it.Prefill {
			i := g.at(it.End)
			ws[i].Iterations++
			poolSum[i] += it.Batch
		}
		// Iterations never overlap within a pool, so no union is needed.
		b := busy[it.Pool]
		if b == nil {
			b = make([]time.Duration, g.n)
			busy[it.Pool] = b
		}
		g.spread(b, trace.Interval{Start: it.Start, End: it.End})
	}
	for i := range ws {
		if ws[i].Iterations > 0 {
			ws[i].MeanPool = float64(poolSum[i]) / float64(ws[i].Iterations)
		}
	}
	poolIDs := make([]int, 0, len(pools))
	for p := range pools {
		poolIDs = append(poolIDs, p)
	}
	sort.Ints(poolIDs)
	for i := range ws {
		if len(poolIDs) == 0 {
			break
		}
		u := make(map[string]float64, len(poolIDs))
		for _, p := range poolIDs {
			u[fmt.Sprintf("pool_%d", p)] = float64(busy[p][i]) / float64(width)
		}
		ws[i].Utilization = u
	}

	for _, ev := range rec.SeqEvents() {
		if ev.Kind == serve.SeqPreempt {
			ws[g.at(ev.At)].Preemptions++
		}
	}
	for _, d := range rec.RouterDecisions() {
		switch d.Kind {
		case "shed":
			ws[g.at(d.At)].Sheds++
		case "hedge":
			ws[g.at(d.At)].Hedges++
		}
	}

	// KV occupancy: the window's max used-block count, carrying the
	// last observed level across event-free windows.
	last := 0
	idx := 0
	events := rec.KVEvents()
	for i := range ws {
		peak := last
		for idx < len(events) && time.Duration(events[idx].At) < time.Duration(i+1)*width {
			last = events[idx].Used
			if last > peak {
				peak = last
			}
			idx++
		}
		ws[i].KVPeakBlocks = peak
	}
	return ws
}

// WriteJSON writes the snapshot as deterministic indented JSON.
func (s *ServingSnapshot) WriteJSON(w io.Writer) error { return writeJSON(w, s) }
