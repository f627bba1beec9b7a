package serve

import (
	"encoding/json"
	"testing"

	"liger/internal/simclock"
	"liger/internal/trace"
)

// A continuous result must emit the whole serving block even when every
// value is zero — tools/benchdiff dotted paths (results.<rt>.preemptions
// and friends) may never go structurally missing just because no
// iteration ran.
func TestResultJSONContinuousEmitsExplicitZeros(t *testing.T) {
	b, err := json.Marshal(Result{Runtime: "Liger", Continuous: true})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"ttft_ms", "tpot_ms", "preemptions", "recomputed_tokens",
		"iterations", "mean_pool", "kv_peak_blocks",
	} {
		v, ok := m[key]
		if !ok {
			t.Fatalf("continuous result omitted %q: %s", key, b)
		}
		if f, ok := v.(float64); !ok || f != 0 {
			t.Fatalf("%q = %v, want explicit 0", key, v)
		}
	}
}

// Batch results keep the historical shape: zero serving metrics are
// omitted, nonzero ones appear.
func TestResultJSONBatchOmitsZeroServingBlock(t *testing.T) {
	b, err := json.Marshal(Result{Runtime: "Liger"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ttft_ms", "tpot_ms", "preemptions", "recomputed_tokens", "iterations", "mean_pool", "kv_peak_blocks"} {
		if _, ok := m[key]; ok {
			t.Fatalf("batch result with zero %q still emitted it: %s", key, b)
		}
	}
	b, err = json.Marshal(Result{Runtime: "Liger", Preemptions: 3})
	if err != nil {
		t.Fatal(err)
	}
	m = nil
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if v, ok := m["preemptions"]; !ok || v.(float64) != 3 {
		t.Fatalf("nonzero preemptions lost: %s", b)
	}
}

// The batcher emits one iteration record per scheduler submission and
// the full lifecycle event stream, all tagged with the configured pool.
func TestContinuousBatcherEmitsServingTrace(t *testing.T) {
	h := newContinuousHarness(t, nil, 4)
	rec := trace.NewRecorder()
	h.cb.SetTracer(rec, 3)
	h.eng.After(0, func(now simclock.Time) {
		h.cb.Add(GenSeq{ID: 1, Prompt: 8, Gen: 4}, now)
	})
	h.eng.Run()
	if err := h.cb.Err(); err != nil {
		t.Fatal(err)
	}
	rec.Normalize()
	// One prefill plus four decode iterations, matching the batcher's
	// own counters.
	iters := rec.Iterations()
	if len(iters) != h.cb.PrefillBatches+h.cb.Iterations {
		t.Fatalf("%d iteration records, batcher ran %d prefills + %d decodes",
			len(iters), h.cb.PrefillBatches, h.cb.Iterations)
	}
	if !iters[0].Prefill {
		t.Fatal("first record is not the prefill")
	}
	decodes := 0
	for _, it := range iters {
		if it.Pool != 3 {
			t.Fatalf("record tagged pool %d, want 3", it.Pool)
		}
		if it.End <= it.Start {
			t.Fatalf("empty iteration span %+v", it)
		}
		if !it.Prefill {
			decodes++
			if it.Batch != 1 || it.Retired > 1 {
				t.Fatalf("decode record %+v for a single sequence", it)
			}
		}
	}
	if decodes != 4 {
		t.Fatalf("%d decode records for 4 generated tokens", decodes)
	}
	// Lifecycle: arrive → prefill_start → prefill_end → finish, in order,
	// all for sequence 1 on pool 3.
	kinds := []SeqEventKind{}
	for _, e := range rec.SeqEvents() {
		if e.Seq != 1 || e.Pool != 3 {
			t.Fatalf("unexpected lifecycle event %+v", e)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []SeqEventKind{SeqArrive, SeqPrefillStart, SeqPrefillEnd, SeqFinish}
	if len(kinds) != len(want) {
		t.Fatalf("lifecycle %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("lifecycle %v, want %v", kinds, want)
		}
	}
}
