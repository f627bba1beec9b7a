package model

import "testing"

func TestLLaMA70BSpec(t *testing.T) {
	s := LLaMA70B()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b := float64(s.Params()) / 1e9
	if b < 64 || b > 74 {
		t.Fatalf("LLaMA-70B params %.1fB outside [64, 74]", b)
	}
	if s.NumKVHeads() != 8 || s.KVDim() != 8*128 {
		t.Fatalf("GQA dims wrong: kv heads %d, kv dim %d", s.NumKVHeads(), s.KVDim())
	}
	if s.FFNHidden() != 28672 {
		t.Fatalf("FFN dim %d", s.FFNHidden())
	}
}

func TestGQAShrinksKVCache(t *testing.T) {
	mha := LLaMA70B()
	mha.KVHeads = 0 // full multi-head
	gqa := LLaMA70B()
	ratio := float64(mha.KVCacheBytes(1024)) / float64(gqa.KVCacheBytes(1024))
	if ratio != 8 {
		t.Fatalf("GQA cache shrink %vx, want 8x (64/8 heads)", ratio)
	}
}

func TestGQAShrinksQKVProjection(t *testing.T) {
	w := Workload{Batch: 2, SeqLen: 64, Phase: Context}
	var qkvN int
	for _, op := range LayerOps(nil, LLaMA70B(), w) {
		if op.Name == "qkv" {
			qkvN = op.N
		}
	}
	// Q (8192) + K,V (2 x 1024).
	if qkvN != 8192+2*1024 {
		t.Fatalf("qkv cols %d", qkvN)
	}
}

func TestGatedFFNDoublesUpProjection(t *testing.T) {
	w := Workload{Batch: 2, SeqLen: 64, Phase: Context}
	var fc1N, fc2K int
	for _, op := range LayerOps(nil, LLaMA70B(), w) {
		switch op.Name {
		case "fc1":
			fc1N = op.N
		case "fc2":
			fc2K = op.K
		}
	}
	if fc1N != 2*28672 {
		t.Fatalf("gated fc1 cols %d, want 2x FFN dim", fc1N)
	}
	if fc2K != 28672 {
		t.Fatalf("fc2 inner %d", fc2K)
	}
}

func TestGQAValidation(t *testing.T) {
	bad := LLaMA70B()
	bad.KVHeads = 7 // 64 % 7 != 0
	if bad.Validate() == nil {
		t.Fatal("ungrouped KV heads accepted")
	}
	bad = LLaMA70B()
	bad.KVHeads = 100
	if bad.Validate() == nil {
		t.Fatal("KV heads above heads accepted")
	}
}

func TestTable1ModelsUnchangedByExtensions(t *testing.T) {
	// The GQA/gated-FFN extension must not alter the paper models.
	s := OPT30B()
	if s.NumKVHeads() != s.Heads || s.KVDim() != s.Hidden {
		t.Fatal("OPT-30B attention dims changed")
	}
	w := Workload{Batch: 2, SeqLen: 64, Phase: Context}
	for _, op := range LayerOps(nil, s, w) {
		switch op.Name {
		case "qkv":
			if op.N != 3*s.Hidden {
				t.Fatalf("qkv cols %d", op.N)
			}
		case "fc1":
			if op.N != 4*s.Hidden {
				t.Fatalf("fc1 cols %d", op.N)
			}
		}
	}
}
