package cluster

import (
	"bytes"
	"testing"

	"liger/internal/analyze"
	"liger/internal/metrics"
	"liger/internal/serve"
	"liger/internal/trace"
)

// renderDisaggTrace runs a traced disaggregated cluster at the given
// worker count and renders every serving artifact to memory.
func renderDisaggTrace(t *testing.T, workers int) (d *Disagg, res serve.Result, chrome, report, snap string) {
	t.Helper()
	cfg := disaggCfg(workers)
	cfg.Trace = true
	d, err := NewDisagg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = d.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := d.ServingTrace()
	if rec == nil {
		t.Fatal("Trace set but ServingTrace is nil")
	}
	rec.Normalize()
	var c, r, s bytes.Buffer
	if err := rec.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	rep := analyze.AnalyzeServing(rec)
	if err := rep.WriteJSON(&r); err != nil {
		t.Fatal(err)
	}
	// Cross-check the trace against the cluster's own accounting before
	// handing the bytes back: every KV transfer must appear as a handoff.
	transfers, bytes := d.Handoffs()
	if got := rep.Counters["handoffs"]; got != int64(transfers) {
		t.Fatalf("report handoffs %d, cluster counted %d transfers", got, transfers)
	}
	if got := rep.Counters["handoff_bytes"]; got != bytes {
		t.Fatalf("report handoff_bytes %d, cluster transferred %d", got, bytes)
	}
	if rep.SegmentNS["handoff"] == 0 || rep.SegmentNS["notify"] == 0 {
		t.Fatalf("disaggregated run missing handoff/notify segments: %v", rep.SegmentNS)
	}
	if err := metrics.FromServing(cfg.Runtime.String(), rec, metrics.Options{}).WriteJSON(&s); err != nil {
		t.Fatal(err)
	}
	return d, res, c.String(), r.String(), s.String()
}

// The disaggregated serving trace is merged from one recorder per shard
// (frontend plus each decode node); after the deterministic merge and
// Normalize, every rendered artifact must be byte-identical at any
// sharded-executor worker count.
func TestDisaggServingTraceDeterministicAcrossWorkers(t *testing.T) {
	_, res1, c1, r1, s1 := renderDisaggTrace(t, 1)
	_, res4, c4, r4, s4 := renderDisaggTrace(t, 4)
	if res1.Completed != res4.Completed || res1.Makespan != res4.Makespan {
		t.Fatalf("results diverge across workers: %+v vs %+v", res1, res4)
	}
	if c1 != c4 {
		t.Fatal("chrome trace differs between Workers=1 and Workers=4")
	}
	if r1 != r4 {
		t.Fatal("serving report differs between Workers=1 and Workers=4")
	}
	if s1 != s4 {
		t.Fatal("metrics snapshot differs between Workers=1 and Workers=4")
	}
}

// An untraced run must return a nil recorder and identical results — the
// telemetry is strictly observational.
func TestDisaggTraceDoesNotPerturb(t *testing.T) {
	plain, err := NewDisagg(disaggCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	pres, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.ServingTrace() != nil {
		t.Fatal("untraced run returned a recorder")
	}
	td, tres, _, _, _ := renderDisaggTrace(t, 1)
	if pres.Makespan != tres.Makespan || pres.TTFT != tres.TTFT || pres.TPOT != tres.TPOT {
		t.Fatalf("tracing changed the simulation: %v/%v/%v vs %v/%v/%v",
			pres.Makespan, pres.TTFT, pres.TPOT, tres.Makespan, tres.TTFT, tres.TPOT)
	}
	// Per-request trace latencies must match the cluster's measurements.
	rec := func() *trace.Recorder {
		cfg := disaggCfg(1)
		cfg.Trace = true
		d, err := NewDisagg(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return d.ServingTrace()
	}()
	rep := analyze.AnalyzeServing(rec)
	if len(rep.Requests) != tres.Completed {
		t.Fatalf("decomposed %d requests, ran %d", len(rep.Requests), tres.Completed)
	}
	ttft, _, _ := sequences(t, td)
	for _, r := range rep.Requests {
		if got := ttft[r.Seq].Nanoseconds(); r.TTFTNS != got {
			t.Fatalf("seq %d: report TTFT %dns, cluster measured %dns", r.Seq, r.TTFTNS, got)
		}
		if got := tres.Latencies[r.Seq].Nanoseconds(); r.TotalNS != got {
			t.Fatalf("seq %d: report total %dns, cluster measured %dns", r.Seq, r.TotalNS, got)
		}
		var sum int64
		for _, v := range r.SegmentNS {
			sum += v
		}
		if sum != r.TotalNS {
			t.Fatalf("seq %d: segments sum to %dns, total %dns", r.Seq, sum, r.TotalNS)
		}
	}
}
