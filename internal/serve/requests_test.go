package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"liger/internal/model"
	"liger/internal/simclock"
)

func TestGenerateRequestsShape(t *testing.T) {
	reqs, err := GenerateRequests(RequestTraceConfig{
		Requests: 40, RatePerSec: 100, MinSeq: 16, MaxSeq: 128, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 40 {
		t.Fatalf("%d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.Request.ID != i {
			t.Fatalf("request %d has ID %d", i, r.Request.ID)
		}
		if r.Request.SeqLen < 16 || r.Request.SeqLen > 128 {
			t.Fatalf("seq %d", r.Request.SeqLen)
		}
	}
}

func TestGenerateRequestsValidation(t *testing.T) {
	if _, err := GenerateRequests(RequestTraceConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestRunRequestsEndToEnd(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: 5 * time.Millisecond}
	reqs, err := GenerateRequests(RequestTraceConfig{
		Requests: 20, RatePerSec: 1000, MinSeq: 16, MaxSeq: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// maxWait comfortably above 3 inter-arrival gaps: batches fill to 4.
	res, err := RunRequests(eng, rt, reqs, 4, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.Batches != 5 {
		t.Fatalf("batches %d, want 5 (20 requests / maxBatch 4)", res.Batches)
	}
	// Request latency includes the batching delay.
	if res.AvgLatency < res.AvgBatchingDelay {
		t.Fatalf("latency %v below batching delay %v", res.AvgLatency, res.AvgBatchingDelay)
	}
	if res.AvgLatency < 5*time.Millisecond {
		t.Fatalf("latency %v below service time", res.AvgLatency)
	}
}

func TestRunRequestsPartialFinalBatch(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: time.Millisecond}
	reqs, err := GenerateRequests(RequestTraceConfig{
		Requests: 7, RatePerSec: 1000, MinSeq: 16, MaxSeq: 16, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRequests(eng, rt, reqs, 4, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 7 {
		t.Fatalf("completed %d of 7 (straggler batch lost?)", res.Completed)
	}
	if res.Batches != 2 {
		t.Fatalf("batches %d, want 2 (4 + 3)", res.Batches)
	}
}

func TestRunRequestsEmpty(t *testing.T) {
	eng := simclock.New()
	rt := &fakeRuntime{eng: eng, service: time.Millisecond}
	if _, err := RunRequests(eng, rt, nil, 4, time.Millisecond); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestPack pins the batching frontend's packing rule: a batch closes at
// its maxBatch-th request or maxWait after its oldest, padded to its
// longest sequence.
func TestPack(t *testing.T) {
	const ms = simclock.Time(time.Millisecond)
	ctx := func(batch, seq int, at simclock.Time) Arrival {
		return Arrival{At: at, Workload: model.Workload{Batch: batch, SeqLen: seq, Phase: model.Context}}
	}
	cases := []struct {
		name     string
		at       []simclock.Time // arrival instants
		seq      []int           // sequence lengths; 16 where omitted
		maxBatch int
		maxWait  time.Duration
		want     []Arrival
		batchOf  []int
		err      string
	}{
		{name: "fills-to-max-batch", at: make([]simclock.Time, 8), maxBatch: 4, maxWait: time.Second,
			// Full batches close at their last arrival, not at the deadline.
			want: []Arrival{ctx(4, 16, 0), ctx(4, 16, 0)}, batchOf: []int{0, 0, 0, 0, 1, 1, 1, 1}},
		{name: "max-wait-closes-partial", at: []simclock.Time{0, 0}, seq: []int{32, 64}, maxBatch: 8, maxWait: 5 * time.Millisecond,
			want: []Arrival{ctx(2, 64, 5*ms)}, batchOf: []int{0, 0}},
		{name: "pads-to-longest-sequence", at: []simclock.Time{0, 0, 0}, seq: []int{16, 128, 64}, maxBatch: 3, maxWait: time.Millisecond,
			want: []Arrival{ctx(3, 128, 0)}, batchOf: []int{0, 0, 0}},
		// The second request arrives late and alone: its own deadline applies.
		{name: "deadline-from-own-oldest", at: []simclock.Time{0, 20 * ms}, maxBatch: 2, maxWait: 5 * time.Millisecond,
			want: []Arrival{ctx(1, 16, 5*ms), ctx(1, 16, 25*ms)}, batchOf: []int{0, 1}},
		{name: "joins-at-deadline", at: []simclock.Time{0, 5 * ms, 5*ms + 1}, maxBatch: 8, maxWait: 5 * time.Millisecond,
			want: []Arrival{ctx(2, 16, 5*ms), ctx(1, 16, 10*ms+1)}, batchOf: []int{0, 0, 1}},
		{name: "max-batch-0", at: []simclock.Time{0}, maxBatch: 0, maxWait: time.Millisecond, err: "max batch 0"},
		{name: "max-wait-0", at: []simclock.Time{0}, maxBatch: 4, maxWait: 0, err: "max wait 0s"},
		{name: "out-of-order", at: []simclock.Time{ms, 0}, maxBatch: 4, maxWait: time.Millisecond, err: "before request 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := make([]RequestArrival, len(tc.at))
			for i, at := range tc.at {
				reqs[i] = RequestArrival{At: at, Request: Request{ID: i, SeqLen: 16}}
				if i < len(tc.seq) {
					reqs[i].Request.SeqLen = tc.seq[i]
				}
			}
			got, batchOf, err := pack(reqs, tc.maxBatch, tc.maxWait)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || !reflect.DeepEqual(batchOf, tc.batchOf) {
				t.Fatalf("pack = %+v %v, want %+v %v", got, batchOf, tc.want, tc.batchOf)
			}
		})
	}
}
