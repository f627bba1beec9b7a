package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

func sampleRun() (serve.Result, *trace.Recorder) {
	us := func(n int) simclock.Time { return simclock.Time(n) * simclock.Time(time.Microsecond) }
	rec := trace.NewRecorder()
	// Request 0: compute [0,100], comm [100,140]; request 1: compute
	// [140,200] with a cancelled kernel.
	rec.KernelSpan(gpusim.KernelSpan{Device: 0, Name: "gemm", Class: gpusim.Compute,
		Start: us(0), End: us(100), Batch: 0, Req: 0, Coll: -1})
	rec.KernelSpan(gpusim.KernelSpan{Device: 0, Name: "ar", Class: gpusim.Comm,
		Start: us(100), End: us(140), Batch: 0, Req: 0, Coll: 3})
	rec.KernelSpan(gpusim.KernelSpan{Device: 0, Name: "gemm", Class: gpusim.Compute,
		Start: us(140), End: us(200), Batch: 1, Req: 1, Coll: -1,
		Cancelled: gpusim.CancelDeviceFail})
	rec.DeviceFailed(0, us(200))
	res := serve.Result{
		Runtime:   "Liger",
		Completed: 2, Requests: 4, Retries: 1,
		Latencies: []time.Duration{140 * time.Microsecond, 300 * time.Microsecond},
		Makespan:  time.Millisecond,
		PerRequest: []serve.RequestLat{
			{Req: 0, Arrival: 0, Done: 140 * time.Microsecond, QueueWait: 0},
			{Req: 1, Arrival: 50 * time.Microsecond, Done: 350 * time.Microsecond,
				QueueWait: 20 * time.Microsecond, Deferral: 10 * time.Microsecond, Retries: 1},
		},
	}
	return res, rec
}

func TestFromRunDecomposesRequests(t *testing.T) {
	res, rec := sampleRun()
	s := FromRun(res, rec, Options{})
	if len(s.Requests) != 2 {
		t.Fatalf("%d request rows, want 2", len(s.Requests))
	}
	r0 := s.Requests[0]
	if r0.ComputeNS != 100_000 || r0.CommNS != 40_000 || r0.StallNS != 0 || r0.Kernels != 2 {
		t.Fatalf("request 0 device decomposition wrong: %+v", r0)
	}
	r1 := s.Requests[1]
	if r1.CancelledKernels != 1 || r1.Retries != 1 || r1.DeferralNS != 10_000 {
		t.Fatalf("request 1 decomposition wrong: %+v", r1)
	}
	if r1.TotalNS != 300_000 {
		t.Fatalf("request 1 total %d, want done-arrival", r1.TotalNS)
	}
	if s.Counters["kernel_spans_cancelled"] != 1 || s.Counters["device_failures"] != 1 {
		t.Fatalf("trace counters wrong: %v", s.Counters)
	}
	if s.Histograms["latency"].Count != 2 || s.Histograms["latency"].MaxNS != 300_000 {
		t.Fatalf("latency histogram wrong: %+v", s.Histograms["latency"])
	}
}

func TestFromRunWithoutRecorder(t *testing.T) {
	res, _ := sampleRun()
	s := FromRun(res, nil, Options{})
	if _, ok := s.Counters["kernel_spans"]; ok {
		t.Fatal("trace counters present without a recorder")
	}
	if len(s.Requests) != 2 || s.Requests[0].Kernels != 0 {
		t.Fatalf("serving-side rows should survive without a recorder: %+v", s.Requests)
	}
}

func TestWriteJSONDeterministicAndValid(t *testing.T) {
	res, rec := sampleRun()
	var a, b bytes.Buffer
	if err := FromRun(res, rec, Options{}).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := FromRun(res, rec, Options{}).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical snapshots serialized differently")
	}
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if a.Bytes()[a.Len()-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
}

func TestWindowedTimeSeries(t *testing.T) {
	res, rec := sampleRun()
	res.Deadline = 200 * time.Microsecond
	s := FromRun(res, rec, Options{Window: 250 * time.Microsecond})
	if s.WindowNS != 250_000 {
		t.Fatalf("window_ns %d, want 250000", s.WindowNS)
	}
	if len(s.Windows) != 4 {
		t.Fatalf("%d windows over a 1ms run, want 4", len(s.Windows))
	}
	w0, w1 := s.Windows[0], s.Windows[1]
	// Request 0 resolves at 140µs (window 0, within deadline), request
	// 1 at 350µs (window 1, 300µs > 200µs deadline).
	if w0.Completed != 1 || w0.P99NS != 140_000 || w0.SLOMissRate != 0 {
		t.Fatalf("window 0 wrong: %+v", w0)
	}
	if w0.Throughput != 4000 {
		t.Fatalf("window 0 throughput %v, want 4000/s", w0.Throughput)
	}
	if w1.Completed != 1 || w1.P99NS != 300_000 || w1.SLOMissRate != 1 {
		t.Fatalf("window 1 wrong: %+v", w1)
	}
	// Device 0 is busy [0, 200µs]: 80% of window 0, idle afterwards.
	if w0.Utilization != 0.8 {
		t.Fatalf("window 0 utilization %v, want 0.8", w0.Utilization)
	}
	if s.Windows[2].Utilization != 0 || s.Windows[3].Completed != 0 {
		t.Fatalf("tail windows should be empty: %+v", s.Windows[2:])
	}
}

func TestWindowsDisabledByDefault(t *testing.T) {
	res, rec := sampleRun()
	if s := FromRun(res, rec, Options{}); s.Windows != nil || s.WindowNS != 0 {
		t.Fatal("zero window width must disable the series")
	}
	// Failed requests count as resolved misses in their window.
	res.PerRequest = append(res.PerRequest, serve.RequestLat{
		Req: 2, Arrival: 0, Done: 900 * time.Microsecond, Failed: true})
	s := FromRun(res, rec, Options{Window: 500 * time.Microsecond})
	if len(s.Windows) != 2 || s.Windows[1].SLOMissRate != 1 || s.Windows[1].Completed != 0 {
		t.Fatalf("failed request not accounted: %+v", s.Windows)
	}
}
