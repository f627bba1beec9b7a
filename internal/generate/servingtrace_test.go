package generate

import (
	"bytes"
	"testing"
	"time"

	"liger/internal/analyze"
	"liger/internal/core"
	"liger/internal/kvcache"
	"liger/internal/metrics"
	"liger/internal/serve"
	"liger/internal/trace"
)

// checkDecompositionTiles pins the serving report's defining invariant
// against the driver's own measurements: every request's segments are
// contiguous, tile [arrival, finish] exactly, sum to the measured total
// latency to the nanosecond, and the segments left of the first-token
// instant sum exactly to the measured TTFT.
func checkDecompositionTiles(t *testing.T, rep *analyze.ServingReport, res serve.Result, ttft []time.Duration) {
	t.Helper()
	if len(rep.Requests) != res.Completed {
		t.Fatalf("decomposed %d requests, ran %d", len(rep.Requests), res.Completed)
	}
	for _, r := range rep.Requests {
		if len(r.Segments) == 0 {
			t.Fatalf("seq %d: no segments", r.Seq)
		}
		if r.Segments[0].StartNS != r.ArrivalNS {
			t.Fatalf("seq %d: first segment starts at %d, arrival %d", r.Seq, r.Segments[0].StartNS, r.ArrivalNS)
		}
		if last := r.Segments[len(r.Segments)-1]; last.EndNS != r.FinishNS {
			t.Fatalf("seq %d: last segment ends at %d, finish %d", r.Seq, last.EndNS, r.FinishNS)
		}
		var sum, ttftSum int64
		ttftBoundary := false
		prevEnd := r.ArrivalNS
		for i, s := range r.Segments {
			if s.StartNS != prevEnd {
				t.Fatalf("seq %d: segment %d starts at %d, previous ended %d — gap in the tiling",
					r.Seq, i, s.StartNS, prevEnd)
			}
			if s.EndNS <= s.StartNS {
				t.Fatalf("seq %d: empty segment %+v", r.Seq, s)
			}
			sum += s.EndNS - s.StartNS
			if s.EndNS <= r.FirstTokenNS {
				ttftSum += s.EndNS - s.StartNS
			}
			if s.EndNS == r.FirstTokenNS || s.StartNS == r.FirstTokenNS {
				ttftBoundary = true
			}
			prevEnd = s.EndNS
		}
		if sum != r.TotalNS {
			t.Fatalf("seq %d: segments sum to %dns, total latency %dns", r.Seq, sum, r.TotalNS)
		}
		if !ttftBoundary {
			t.Fatalf("seq %d: first-token instant %d is not a segment boundary", r.Seq, r.FirstTokenNS)
		}
		if ttftSum != r.TTFTNS {
			t.Fatalf("seq %d: pre-first-token segments sum to %dns, TTFT %dns", r.Seq, ttftSum, r.TTFTNS)
		}
		var kindSum int64
		for _, v := range r.SegmentNS {
			kindSum += v
		}
		if kindSum != r.TotalNS {
			t.Fatalf("seq %d: per-kind totals sum to %dns, total %dns", r.Seq, kindSum, r.TotalNS)
		}
		// The report must agree with the driver's own latency accounting.
		if got := ttft[r.Seq].Nanoseconds(); r.TTFTNS != got {
			t.Fatalf("seq %d: report TTFT %dns, driver measured %dns", r.Seq, r.TTFTNS, got)
		}
		if got := res.Latencies[r.Seq].Nanoseconds(); r.TotalNS != got {
			t.Fatalf("seq %d: report total %dns, driver measured %dns", r.Seq, r.TotalNS, got)
		}
	}
}

// traced serves cfg, whose Recorder is set, on a fresh engine of kind
// and returns the result with each sequence's TTFT as the ledger
// measured it, in sequence order.
func traced(t *testing.T, kind core.RuntimeKind, cfg serve.DecodeNodeConfig) (serve.Result, []time.Duration) {
	t.Helper()
	res, _, ledger, err := serveContinuous(t, engineFor(t, kind), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ttft, _, _, err := ledger.Fold()
	if err != nil {
		t.Fatal(err)
	}
	return res, ttft
}

func TestServingTraceDecompositionTilesLatency(t *testing.T) {
	for _, kind := range []core.RuntimeKind{core.KindLiger, core.KindIntraOp} {
		t.Run(kind.String(), func(t *testing.T) {
			rec := trace.NewRecorder()
			cfg := contCfg()
			cfg.Recorder = rec
			res, ttft := traced(t, kind, cfg)
			rep := analyze.AnalyzeServing(rec)
			checkDecompositionTiles(t, rep, res, ttft)
			// No pressure: the uncontended decomposition is queue +
			// prefill + decode only.
			for _, k := range []string{"preempt_wait", "recompute", "handoff", "notify"} {
				if rep.SegmentNS[k] != 0 {
					t.Fatalf("segment %q = %d on an uncontended single-node run", k, rep.SegmentNS[k])
				}
			}
			if rep.SegmentNS["decode"] == 0 || rep.SegmentNS["prefill"] == 0 {
				t.Fatalf("missing prefill/decode segments: %v", rep.SegmentNS)
			}
		})
	}
}

// Under engineered KV pressure the decomposition still tiles exactly —
// preempt_wait and recompute segments absorb the eviction epochs — and
// the tracer's KV event stream, the analyzer's episodes/counters, and
// the metrics snapshot all agree with the driver's preemption counts.
func TestServingTraceKVPressureEpisodes(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := pressureCfg(t)
	cfg.Recorder = rec
	res, ttft := traced(t, core.KindLiger, cfg)
	if res.Preemptions == 0 {
		t.Fatal("no preemption despite engineered memory pressure")
	}
	rep := analyze.AnalyzeServing(rec)
	checkDecompositionTiles(t, rep, res, ttft)
	if rep.SegmentNS["preempt_wait"] == 0 || rep.SegmentNS["recompute"] == 0 {
		t.Fatalf("preempted run missing preempt_wait/recompute segments: %v", rep.SegmentNS)
	}
	// The eviction must appear identically in every layer: the batcher's
	// lifecycle stream, the allocator's event stream, the analyzer's
	// counters, and the metrics snapshot.
	preemptEvents := 0
	for _, e := range rec.KVEvents() {
		if e.Kind == kvcache.KVPreempt {
			preemptEvents++
		}
	}
	if preemptEvents != res.Preemptions {
		t.Fatalf("%d KVPreempt events, driver counted %d preemptions", preemptEvents, res.Preemptions)
	}
	seqPreempts := 0
	for _, e := range rec.SeqEvents() {
		if e.Kind == trace.SeqPreempt {
			seqPreempts++
		}
	}
	if seqPreempts != res.Preemptions {
		t.Fatalf("%d lifecycle preempt events, driver counted %d", seqPreempts, res.Preemptions)
	}
	if got := rep.Counters["preemptions"]; got != int64(res.Preemptions) {
		t.Fatalf("report preemptions %d, driver %d", got, res.Preemptions)
	}
	if got := rep.Counters["recomputed_tokens"]; got != int64(res.RecomputedTokens) {
		t.Fatalf("report recomputed_tokens %d, driver %d", got, res.RecomputedTokens)
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("no KV-pressure episodes despite forced preemption")
	}
	epPreempts := 0
	for _, ep := range rep.Episodes {
		if ep.EndNS < ep.StartNS {
			t.Fatalf("episode ends before it starts: %+v", ep)
		}
		epPreempts += ep.Preemptions
	}
	if epPreempts != res.Preemptions {
		t.Fatalf("episodes attribute %d preemptions, driver counted %d", epPreempts, res.Preemptions)
	}
	snap := metrics.FromServing("Liger", rec, metrics.Options{})
	if got := snap.Counters["preemptions"]; got != int64(res.Preemptions) {
		t.Fatalf("metrics preemptions %d, driver %d", got, res.Preemptions)
	}
	if got := snap.Counters["recomputed_tokens"]; got != int64(res.RecomputedTokens) {
		t.Fatalf("metrics recomputed_tokens %d, driver %d", got, res.RecomputedTokens)
	}
	if got := int(snap.Gauges["kv_peak_blocks"]); got != res.KVPeakBlocks {
		t.Fatalf("metrics kv_peak_blocks %d, allocator peak %d", got, res.KVPeakBlocks)
	}
}

// Two identical runs must render byte-identical serving artifacts —
// the golden determinism contract every downstream writer relies on.
func TestServingTraceRepeatRunByteIdentical(t *testing.T) {
	render := func() (string, string, string) {
		rec := trace.NewRecorder()
		cfg := pressureCfg(t)
		cfg.Recorder = rec
		traced(t, core.KindLiger, cfg)
		rec.Normalize()
		var chrome, report, snap bytes.Buffer
		if err := rec.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := analyze.AnalyzeServing(rec).WriteJSON(&report); err != nil {
			t.Fatal(err)
		}
		if err := metrics.FromServing("Liger", rec, metrics.Options{}).WriteJSON(&snap); err != nil {
			t.Fatal(err)
		}
		return chrome.String(), report.String(), snap.String()
	}
	c1, r1, s1 := render()
	c2, r2, s2 := render()
	if c1 != c2 {
		t.Fatal("chrome trace differs between identical runs")
	}
	if r1 != r2 {
		t.Fatal("serving report differs between identical runs")
	}
	if s1 != s2 {
		t.Fatal("metrics snapshot differs between identical runs")
	}
}
