package model

import (
	"testing"
	"testing/quick"
)

func TestTable1Specs(t *testing.T) {
	cases := []struct {
		spec          Spec
		layers, heads int
		hidden        int
		minB, maxB    float64 // parameter count bounds, billions
	}{
		{OPT30B(), 48, 56, 7168, 28, 32},
		{OPT66B(), 64, 72, 9216, 63, 69},
		{GLM130B(), 70, 96, 12288, 124, 134},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if c.spec.Layers != c.layers || c.spec.Heads != c.heads || c.spec.Hidden != c.hidden {
			t.Fatalf("%s: wrong Table 1 dimensions %+v", c.spec.Name, c.spec)
		}
		b := float64(c.spec.Params()) / 1e9
		if b < c.minB || b > c.maxB {
			t.Errorf("%s: %.1fB params outside [%v, %v]", c.spec.Name, b, c.minB, c.maxB)
		}
	}
}

func TestWeightBytesMatchTable1(t *testing.T) {
	// Table 1 lists FP16 sizes 60 GB / 132 GB / 260 GB.
	cases := []struct {
		spec Spec
		gb   float64
	}{
		{OPT30B(), 60}, {OPT66B(), 132}, {GLM130B(), 260},
	}
	for _, c := range cases {
		gb := float64(c.spec.WeightBytes()) / 1e9
		if gb < 0.88*c.gb || gb > 1.12*c.gb {
			t.Errorf("%s: %.0f GB, Table 1 says %v GB", c.spec.Name, gb, c.gb)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "neg", Layers: -1, Heads: 8, Hidden: 512, FFNMult: 4},
		{Name: "indiv", Layers: 2, Heads: 7, Hidden: 512, FFNMult: 4},
		{Name: "noffn", Layers: 2, Heads: 8, Hidden: 512, FFNMult: 0},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", s.Name)
		}
	}
}

func TestWithLayers(t *testing.T) {
	s := OPT30B().WithLayers(12)
	if s.Layers != 12 {
		t.Fatalf("Layers = %d", s.Layers)
	}
	if s.Hidden != OPT30B().Hidden {
		t.Fatal("WithLayers changed hidden size")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"OPT-30B", "OPT-66B", "GLM-130B", "tiny"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestWorkloadTokens(t *testing.T) {
	w := Workload{Batch: 4, SeqLen: 32, Phase: Context}
	if w.Tokens() != 128 {
		t.Fatalf("context tokens = %d, want 128", w.Tokens())
	}
	d := Workload{Batch: 4, CtxLen: 100, Phase: Decode}
	if d.Tokens() != 4 {
		t.Fatalf("decode tokens = %d, want 4 (one token per request)", d.Tokens())
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := []Workload{
		{Batch: 1, SeqLen: 16, Phase: Context},
		{Batch: 32, CtxLen: 16, Phase: Decode},
	}
	for _, w := range good {
		if err := w.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", w, err)
		}
	}
	bad := []Workload{
		{Batch: 0, SeqLen: 16, Phase: Context},
		{Batch: 2, SeqLen: 0, Phase: Context},
		{Batch: 2, CtxLen: 0, Phase: Decode},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("%+v accepted", w)
		}
	}
}

func TestLayerOpsStructure(t *testing.T) {
	s := OPT30B()
	w := Workload{Batch: 2, SeqLen: 64, Phase: Context}
	ops := LayerOps(nil, s, w)
	var gemms, reduces int
	for _, op := range ops {
		if op.Kind == OpGEMM {
			gemms++
		}
		if op.ReduceAfter {
			reduces++
		}
	}
	if gemms != 4 {
		t.Fatalf("layer has %d GEMMs, want 4 (qkv, attn_out, fc1, fc2)", gemms)
	}
	if reduces != 2 {
		t.Fatalf("layer has %d reduce points, want 2 (Megatron)", reduces)
	}
	// Reduce points must follow the row-partitioned GEMMs.
	for _, op := range ops {
		if op.ReduceAfter && op.Partition != PartRows {
			t.Fatalf("reduce after %s which is not row-partitioned", op.Name)
		}
	}
}

func TestLayerOpsGEMMShapes(t *testing.T) {
	s := OPT30B()
	w := Workload{Batch: 2, SeqLen: 64, Phase: Context}
	tokens := w.Tokens()
	for _, op := range LayerOps(nil, s, w) {
		if op.Kind != OpGEMM {
			continue
		}
		if op.M != tokens {
			t.Fatalf("%s: M=%d, want %d", op.Name, op.M, tokens)
		}
		switch op.Name {
		case "qkv":
			if op.N != 3*s.Hidden || op.K != s.Hidden {
				t.Fatalf("qkv shape %dx%d", op.N, op.K)
			}
		case "fc1":
			if op.N != 4*s.Hidden || op.K != s.Hidden {
				t.Fatalf("fc1 shape %dx%d", op.N, op.K)
			}
		case "fc2":
			if op.N != s.Hidden || op.K != 4*s.Hidden {
				t.Fatalf("fc2 shape %dx%d", op.N, op.K)
			}
		}
	}
}

func TestDecodeLayerOps(t *testing.T) {
	s := GLM130B()
	w := Workload{Batch: 32, CtxLen: 128, Phase: Decode}
	for _, op := range LayerOps(nil, s, w) {
		if op.Kind == OpAttention {
			if op.Ctx != 128 || op.Seq != 1 {
				t.Fatalf("decode attention ctx=%d seq=%d", op.Ctx, op.Seq)
			}
		}
		if op.Kind == OpGEMM && op.M != 32 {
			t.Fatalf("decode GEMM rows = %d, want batch 32", op.M)
		}
	}
}

func TestPostOpsLMHeadOnlyInDecode(t *testing.T) {
	s := OPT30B()
	ctx := PostOps(nil, s, Workload{Batch: 2, SeqLen: 16, Phase: Context})
	for _, op := range ctx {
		if op.Name == "lm_head" {
			t.Fatal("context phase should not run lm_head in this harness")
		}
	}
	dec := PostOps(nil, s, Workload{Batch: 2, CtxLen: 16, Phase: Decode})
	found := false
	for _, op := range dec {
		if op.Name == "lm_head" {
			found = true
		}
	}
	if !found {
		t.Fatal("decode phase missing lm_head")
	}
}

func TestKVCacheBytes(t *testing.T) {
	s := OPT30B()
	// 2 (K,V) * 2 bytes * layers * ctx * hidden.
	want := int64(2 * 2 * 48 * 100 * 7168)
	if got := s.KVCacheBytes(100); got != want {
		t.Fatalf("KVCacheBytes = %d, want %d", got, want)
	}
}

// Property: parameter count grows monotonically with each dimension.
func TestPropertyParamsMonotone(t *testing.T) {
	f := func(l, h uint8) bool {
		layers := int(l%32) + 1
		hidden := (int(h%32) + 1) * 64
		s := Spec{Name: "p", Layers: layers, Heads: 8, Hidden: hidden, FFNMult: 4, Vocab: 1000}
		bigger := s
		bigger.Layers++
		wider := s
		wider.Hidden += 64
		return bigger.Params() > s.Params() && wider.Params() > s.Params()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFig4ModelRange(t *testing.T) {
	// Fig. 4 spans models from 8 to 175 billion parameters.
	b8 := float64(GPT8B().Params()) / 1e9
	if b8 < 7 || b8 > 9.5 {
		t.Errorf("GPT-8B params %.1fB", b8)
	}
	b175 := float64(GPT175B().Params()) / 1e9
	if b175 < 168 || b175 > 182 {
		t.Errorf("GPT-175B params %.1fB", b175)
	}
	if err := GPT8B().Validate(); err != nil {
		t.Error(err)
	}
	if err := GPT175B().Validate(); err != nil {
		t.Error(err)
	}
}
