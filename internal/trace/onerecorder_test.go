package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"liger/internal/core"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// tracedBatch records a small batch run's node streams into rec.
func tracedBatch(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	eng, err := core.NewEngine(core.Options{Node: hw.V100Node(), Model: model.Tiny(), Runtime: core.KindLiger, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := serve.Generate(serve.TraceConfig{Batches: 5, BatchSize: 2, RatePerSec: 100, MinSeq: 16, MaxSeq: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Run(eng.Clock(), eng.Runtime(), arrivals); err != nil {
		t.Fatal(err)
	}
}

// tracedContinuous records a small continuous run's serving streams,
// paged-KV transitions included, into rec.
func tracedContinuous(t *testing.T, rec *trace.Recorder) {
	t.Helper()
	node, spec := hw.V100Node(), model.Tiny()
	eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: core.KindLiger})
	if err != nil {
		t.Fatal(err)
	}
	w := serve.SequenceWorkload{Sequences: 8, RatePerSec: 2000, PromptLen: 32, GenTokens: 4, MaxPool: 4, Seed: 1}
	ledger := serve.NewLedger(w.Sequences, w.GenTokens)
	dec, err := serve.NewDecodeNode(eng.Clock(), eng.Runtime(), serve.DecodeNodeConfig{
		Node: node, Model: spec, SequenceWorkload: w, Recorder: rec, Hooks: ledger.Hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Arrive(eng.Clock(), func(id int, now simclock.Time) {
		ledger.Arrive(id, now)
		dec.Add(id, false, now)
	})
	eng.Clock().Run()
	if _, err := ledger.Result(eng.Runtime().Name(), dec); err != nil {
		t.Fatal(err)
	}
	rec.Normalize()
}

// chromeEvent is one written trace event: its bytes and sort key.
type chromeEvent struct {
	raw  json.RawMessage
	TS   float64 `json:"ts"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Name string  `json:"name"`
}

func (a chromeEvent) less(b chromeEvent) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.PID != b.PID {
		return a.PID < b.PID
	}
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	return a.Name < b.Name
}

func chromeEvents(t *testing.T, rec *trace.Recorder) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raws); err != nil {
		t.Fatal(err)
	}
	out := make([]chromeEvent, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatal(err)
		}
		out[i].raw = raw
	}
	return out
}

// One recorder holds a node trace and a serving trace side by side:
// its Chrome trace is exactly the two single-layer traces' events,
// merged in (TS, PID, TID, Name) order, and no PID appears in both.
func TestOneRecorderHoldsBothLayers(t *testing.T) {
	node, serving, both := trace.NewRecorder(), trace.NewRecorder(), trace.NewRecorder()
	tracedBatch(t, node)
	tracedContinuous(t, serving)
	tracedBatch(t, both)
	tracedContinuous(t, both)
	nodeEv, servingEv, got := chromeEvents(t, node), chromeEvents(t, serving), chromeEvents(t, both)
	if len(nodeEv) == 0 || len(servingEv) == 0 {
		t.Fatalf("%d node and %d serving events, want both halves recorded", len(nodeEv), len(servingEv))
	}
	nodePIDs := map[int]bool{}
	for _, e := range nodeEv {
		nodePIDs[e.PID] = true
	}
	for _, e := range servingEv {
		if nodePIDs[e.PID] {
			t.Fatalf("pid %d holds node and serving events", e.PID)
		}
	}
	want := make([]chromeEvent, 0, len(nodeEv)+len(servingEv))
	for len(nodeEv) > 0 || len(servingEv) > 0 {
		if len(servingEv) == 0 || len(nodeEv) > 0 && !servingEv[0].less(nodeEv[0]) {
			want, nodeEv = append(want, nodeEv[0]), nodeEv[1:]
		} else {
			want, servingEv = append(want, servingEv[0]), servingEv[1:]
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].raw, want[i].raw) {
			t.Fatalf("event %d:\n got %s\nwant %s", i, got[i].raw, want[i].raw)
		}
	}
}
