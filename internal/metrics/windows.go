package metrics

import (
	"time"

	"liger/internal/serve"
	"liger/internal/stats"
	"liger/internal/trace"
)

// Options configures snapshot extras beyond the FromRun defaults.
type Options struct {
	// Window enables the windowed time-series: the run is cut into
	// fixed-width buckets and each gets throughput, p99, SLO-miss rate
	// and device utilization. Zero disables the series.
	Window time.Duration
}

// Window is one fixed-width bucket of the run's time-series. Requests
// are bucketed by their resolution instant; utilization is the busy
// share of every device's time inside the bucket.
type Window struct {
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Completed counts batches resolving successfully in the window;
	// Throughput is that count over the window width.
	Completed  int     `json:"completed"`
	Throughput float64 `json:"throughput_per_s"`
	// P99NS summarizes the latencies of the window's completions (0
	// when none completed).
	P99NS int64 `json:"p99_ns"`
	// SLOMissRate is the share of the window's resolved batches that
	// failed or finished past the deadline (0 when no deadline is set
	// and nothing failed).
	SLOMissRate float64 `json:"slo_miss_rate"`
	// Utilization is mean busy fraction across devices (kernel
	// execution time over window width), 0 without a recorder.
	Utilization float64 `json:"utilization"`
}

// grid cuts [0, span) into n fixed-width windows; it is the one
// bucketing both time-series use.
type grid struct {
	width time.Duration
	n     int
}

// newGrid returns the grid covering span; it has no windows when span
// is not positive.
func newGrid(span, width time.Duration) grid {
	g := grid{width: width}
	if span > 0 {
		g.n = int((span + width - 1) / width)
	}
	return g
}

// bounds returns window i's [start, end) in nanoseconds.
func (g grid) bounds(i int) (int64, int64) {
	return int64(i) * g.width.Nanoseconds(), int64(i+1) * g.width.Nanoseconds()
}

// at returns the window holding instant t, clamped to the grid.
func (g grid) at(t time.Duration) int {
	i := int(t / g.width)
	if i >= g.n {
		i = g.n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// spread adds to busy[i] the part of v inside window i, for every
// window v crosses.
func (g grid) spread(busy []time.Duration, v trace.Interval) {
	for i := int(v.Start / g.width); i < g.n && time.Duration(i)*g.width < v.End; i++ {
		lo, hi := time.Duration(i)*g.width, time.Duration(i+1)*g.width
		if v.Start > lo {
			lo = v.Start
		}
		if v.End < hi {
			hi = v.End
		}
		if hi > lo {
			busy[i] += hi - lo
		}
	}
}

func windows(res serve.Result, rec *trace.Recorder, width time.Duration) []Window {
	span := res.Makespan
	if rec != nil {
		for _, sp := range rec.Spans() {
			if end := time.Duration(sp.End); end > span {
				span = end
			}
		}
	}
	g := newGrid(span, width)
	if g.n == 0 {
		return nil
	}
	ws := make([]Window, g.n)
	for i := range ws {
		ws[i].StartNS, ws[i].EndNS = g.bounds(i)
	}

	lats := make([][]time.Duration, g.n)
	resolved := make([]int, g.n)
	missed := make([]int, g.n)
	for _, pr := range res.PerRequest {
		if pr.Shed {
			continue
		}
		i := g.at(pr.Done)
		resolved[i]++
		total := pr.Done - pr.Arrival
		if pr.Failed {
			missed[i]++
			continue
		}
		ws[i].Completed++
		lats[i] = append(lats[i], total)
		if res.Deadline > 0 && total > res.Deadline {
			missed[i]++
		}
	}
	for i := range ws {
		ws[i].Throughput = float64(ws[i].Completed) / width.Seconds()
		ws[i].P99NS = stats.Percentiles(lats[i], 99)[0].Nanoseconds()
		if resolved[i] > 0 {
			ws[i].SLOMissRate = float64(missed[i]) / float64(resolved[i])
		}
	}

	if rec != nil {
		addUtilization(ws, g, rec)
	}
	return ws
}

// addUtilization fills each window's mean busy fraction: per device,
// the union of kernel-execution intervals spread over the windows,
// averaged over the devices seen in the trace.
func addUtilization(ws []Window, g grid, rec *trace.Recorder) {
	perDev := map[int][]trace.Interval{}
	devices := 0
	for _, sp := range rec.Spans() {
		if sp.End <= sp.Start {
			continue
		}
		perDev[sp.Device] = append(perDev[sp.Device], sp.Interval())
		if sp.Device >= devices {
			devices = sp.Device + 1
		}
	}
	if devices == 0 {
		return
	}
	busy := make([]time.Duration, len(ws))
	for _, spans := range perDev {
		for _, v := range trace.Union(spans) {
			g.spread(busy, v)
		}
	}
	for i := range ws {
		ws[i].Utilization = float64(busy[i]) / (float64(g.width.Nanoseconds()) * float64(devices))
	}
}
