package parallel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/nccl"
)

func compilerFor(node hw.Node) *Compiler {
	return NewCompiler(node, nccl.Config{ReducedChannels: true})
}

func ctxWorkload(batch, seq int) model.Workload {
	return model.Workload{Batch: batch, SeqLen: seq, Phase: model.Context}
}

// TestFig3V100Calibration locks in the §2.2.1 case study: OPT-30B on
// the V100/NVLink node scales 2.58x from 1 to 4 devices with
// communication at 20.7% of total time. We assert the model reproduces
// those numbers within tolerance.
func TestFig3V100Calibration(t *testing.T) {
	c := compilerFor(hw.V100Node())
	w := ctxWorkload(2, 64)
	k1, err := c.IntraOp(model.OPT30B(), 1, w)
	if err != nil {
		t.Fatal(err)
	}
	comp1, comm1 := TotalDurations(k1)
	if comm1 != 0 {
		t.Fatalf("single-device plan has communication: %v", comm1)
	}
	k4, err := c.IntraOp(model.OPT30B(), 4, w)
	if err != nil {
		t.Fatal(err)
	}
	comp4, comm4 := TotalDurations(k4)
	t4 := comp4 + comm4
	speedup := float64(comp1) / float64(t4)
	commShare := float64(comm4) / float64(t4)
	if speedup < 2.3 || speedup > 3.1 {
		t.Errorf("V100 OPT-30B strong-scaling speedup = %.2f, paper reports 2.58", speedup)
	}
	if commShare < 0.16 || commShare > 0.27 {
		t.Errorf("V100 OPT-30B comm share = %.1f%%, paper reports 20.7%%", 100*commShare)
	}
}

// TestFig3A100Calibration locks in the GLM-130B case study: 1.91x
// scaling with communication at 47.1% of total time on the A100/PCIe
// node.
func TestFig3A100Calibration(t *testing.T) {
	c := compilerFor(hw.A100Node())
	w := ctxWorkload(2, 64)
	k1, err := c.IntraOp(model.GLM130B(), 1, w)
	if err != nil {
		t.Fatal(err)
	}
	comp1, _ := TotalDurations(k1)
	k4, err := c.IntraOp(model.GLM130B(), 4, w)
	if err != nil {
		t.Fatal(err)
	}
	comp4, comm4 := TotalDurations(k4)
	t4 := comp4 + comm4
	speedup := float64(comp1) / float64(t4)
	commShare := float64(comm4) / float64(t4)
	if speedup < 1.7 || speedup > 2.2 {
		t.Errorf("A100 GLM-130B speedup = %.2f, paper reports 1.91", speedup)
	}
	if commShare < 0.40 || commShare > 0.53 {
		t.Errorf("A100 GLM-130B comm share = %.1f%%, paper reports 47.1%%", 100*commShare)
	}
}

func TestIntraOpTwoAllReducesPerLayer(t *testing.T) {
	c := compilerFor(hw.V100Node())
	spec := model.Tiny()
	k, err := c.IntraOp(spec, 4, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	comm := CountClass(k, gpusim.Comm)
	if want := 2 * spec.Layers; comm != want {
		t.Fatalf("intra-op has %d comm kernels, want %d (two all-reduces per layer)", comm, want)
	}
}

func TestIntraOpKernelTypeAlternation(t *testing.T) {
	// The kernel stream must be runs of compute ending in a comm kernel
	// — the switch-point structure Algorithm 1 exploits.
	c := compilerFor(hw.V100Node())
	k, err := c.IntraOp(model.Tiny(), 4, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(k); i++ {
		if k[i-1].Class == gpusim.Comm && k[i].Class == gpusim.Comm {
			t.Fatalf("two adjacent comm kernels at %d: %s, %s", i, k[i-1].Name, k[i].Name)
		}
	}
	if k[0].Class != gpusim.Compute {
		t.Fatal("plan must start with compute")
	}
}

// IntraOpCapacity is one second over the Intra-Op kernels' summed
// compute and communication time, and 1 when the workload does not
// compile.
func TestIntraOpCapacity(t *testing.T) {
	node, spec := hw.A100Node(), model.OPT30B()
	w := model.Workload{Batch: 2, CtxLen: 64, Phase: model.Decode}
	ks, err := NewCompiler(node, nccl.Config{}).IntraOp(spec, node.NumGPUs, w)
	if err != nil {
		t.Fatal(err)
	}
	c, m := TotalDurations(ks)
	if got, want := IntraOpCapacity(node, spec, w), float64(time.Second)/float64(c+m); got != want {
		t.Fatalf("capacity %v, want %v", got, want)
	}
	if got := IntraOpCapacity(node, spec, model.Workload{Phase: model.Context}); got != 1 {
		t.Fatalf("capacity of an empty workload %v, want the fallback 1", got)
	}
}

func TestIntraOpTP1HasNoComm(t *testing.T) {
	c := compilerFor(hw.V100Node())
	k, err := c.IntraOp(model.Tiny(), 1, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountClass(k, gpusim.Comm); n != 0 {
		t.Fatalf("tp=1 plan has %d comm kernels", n)
	}
}

func TestIntraOpPartitioningReducesComputeTime(t *testing.T) {
	c := compilerFor(hw.A100Node())
	w := ctxWorkload(4, 64)
	k1, _ := c.IntraOp(model.OPT30B(), 1, w)
	k4, _ := c.IntraOp(model.OPT30B(), 4, w)
	comp1, _ := TotalDurations(k1)
	comp4, _ := TotalDurations(k4)
	if comp4 >= comp1 {
		t.Fatalf("4-way compute %v not below 1-way %v", comp4, comp1)
	}
	// But less than 4x better: partitioned kernels lose efficiency.
	if float64(comp1)/float64(comp4) > 3.9 {
		t.Fatalf("partitioned kernels implausibly efficient: %.2fx", float64(comp1)/float64(comp4))
	}
}

// stageNames returns the kernel names of stage s of an n-stage
// pipeline over p.
func stageNames(p *Plan, s, n int) []string {
	lo, hi := p.StageSpan(s, n)
	names := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		_, name := p.At(i)
		names = append(names, name)
	}
	return names
}

func TestInterOpStageStructure(t *testing.T) {
	c := compilerFor(hw.V100Node())
	spec := model.OPT30B()
	w := ctxWorkload(2, 32)
	plan, err := c.IntraOpPlan(spec, 1, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckStages(4); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		lo, hi := plan.StageSpan(s, 4)
		if lo >= hi {
			t.Fatalf("stage %d spans [%d, %d)", s, lo, hi)
		}
		for i := lo; i < hi; i++ {
			if k, name := plan.At(i); k.Class == gpusim.Comm {
				t.Fatalf("stage %d contains comm kernel %s; pipeline comm is only at boundaries", s, name)
			}
		}
		send := c.StageSend(spec, s, w)
		if send.Name != fmt.Sprintf("s%d_send", s) || send.Class != gpusim.Comm || !send.Collective ||
			send.Bytes != int64(w.Tokens())*int64(spec.Hidden)*2 {
			t.Fatalf("stage %d send is %s", s, describe(send))
		}
	}
}

func TestInterOpLayerDistribution(t *testing.T) {
	c := compilerFor(hw.V100Node())
	spec := model.Tiny().WithLayers(7) // 7 layers across 4 stages: 2,2,2,1
	plan, err := c.IntraOpPlan(spec, 1, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for s := range counts {
		for _, name := range stageNames(plan, s, 4) {
			if strings.Contains(name, ".qkv") {
				counts[s]++
			}
		}
	}
	want := []int{2, 2, 2, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("layer distribution %v, want %v", counts, want)
		}
	}
}

func TestInterThUsesPartitionedPieces(t *testing.T) {
	c := compilerFor(hw.V100Node())
	spec := model.Tiny()
	th, err := c.InterThPlan(spec, 4, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	op, err := c.IntraOpPlan(spec, 1, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	// Inter-Th stages have ~4 GEMM pieces per original GEMM.
	thGemms, opGemms := 0, 0
	for _, name := range stageNames(th, 0, 4) {
		if strings.Contains(name, "qkv") {
			thGemms++
		}
	}
	for _, name := range stageNames(op, 0, 4) {
		if strings.Contains(name, "qkv") {
			opGemms++
		}
	}
	if thGemms != 4*opGemms {
		t.Fatalf("Inter-Th has %d qkv pieces vs Inter-Op %d; want 4x", thGemms, opGemms)
	}
}

func TestAllReduceDescSplit(t *testing.T) {
	c := compilerFor(hw.A100Node())
	k, err := c.IntraOp(model.OPT30B(), 4, ctxWorkload(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	var ar KernelDesc
	for _, kd := range k {
		if kd.Class == gpusim.Comm {
			ar = kd
			break
		}
	}
	if !ar.CanSplit() {
		t.Fatal("all-reduce not decomposable")
	}
	pieces, ok := ar.Split(8)
	if !ok || len(pieces) != 8 {
		t.Fatalf("split returned %d pieces, ok=%v", len(pieces), ok)
	}
	var bytes int64
	var sum time.Duration
	for _, p := range pieces {
		if p.Class != gpusim.Comm || !p.Collective {
			t.Fatal("split piece lost its class/collective flag")
		}
		bytes += p.Bytes
		sum += p.Duration
	}
	if bytes != ar.Bytes {
		t.Fatalf("split pieces carry %d bytes, original %d", bytes, ar.Bytes)
	}
	// Each piece pays the collective latency again: the sum must exceed
	// the original but stay sane.
	if sum <= ar.Duration {
		t.Fatalf("decomposed all-reduce sum %v not above original %v", sum, ar.Duration)
	}
	if sum > 3*ar.Duration {
		t.Fatalf("decomposed all-reduce overhead too big: %v vs %v", sum, ar.Duration)
	}
}

func TestGEMMDescSplitConservesColumns(t *testing.T) {
	c := compilerFor(hw.V100Node())
	k, err := c.IntraOp(model.OPT30B(), 4, ctxWorkload(2, 64))
	if err != nil {
		t.Fatal(err)
	}
	var g KernelDesc
	for _, kd := range k {
		if strings.Contains(kd.Name, "fc1") {
			g = kd
			break
		}
	}
	pieces, ok := g.Split(8)
	if !ok || len(pieces) != 8 {
		t.Fatalf("gemm split failed: %d pieces ok=%v", len(pieces), ok)
	}
	var sum time.Duration
	for _, p := range pieces {
		sum += p.Duration
	}
	if sum < g.Duration {
		t.Fatalf("gemm pieces sum %v less than original %v", sum, g.Duration)
	}
}

func TestSplitPrefix(t *testing.T) {
	c := compilerFor(hw.V100Node())
	k, _ := c.IntraOp(model.OPT30B(), 4, ctxWorkload(2, 64))
	var g KernelDesc
	for _, kd := range k {
		if strings.Contains(kd.Name, "fc1") {
			g = kd
			break
		}
	}
	var sp Splitter
	head, rest, _, ok := sp.SplitPrefix(Remainder{Root: &g}, g.Name, 8, 3)
	if !ok {
		t.Fatal("SplitPrefix failed")
	}
	if len(head) != 3 {
		t.Fatalf("head has %d pieces, want 3", len(head))
	}
	if !rest.CanSplit() {
		t.Fatal("remainder lost its splitter")
	}
	var total time.Duration
	for _, h := range head {
		total += h.Duration
	}
	total += rest.Duration
	// Head + remainder should cover roughly the split total.
	pieces, _ := g.Split(8)
	var splitSum time.Duration
	for _, p := range pieces {
		splitSum += p.Duration
	}
	diff := total - splitSum
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(splitSum) {
		t.Fatalf("prefix+rest %v diverges from full split %v", total, splitSum)
	}
}

func TestSplitPrefixRejectsBadArgs(t *testing.T) {
	c := compilerFor(hw.V100Node())
	k, _ := c.IntraOp(model.OPT30B(), 4, ctxWorkload(2, 64))
	g := k[1]
	var sp Splitter
	if _, _, _, ok := sp.SplitPrefix(Remainder{Root: &g}, g.Name, 8, 0); ok {
		t.Fatal("take=0 accepted")
	}
	if _, _, _, ok := sp.SplitPrefix(Remainder{Root: &g}, g.Name, 8, 8); ok {
		t.Fatal("take=parts accepted")
	}
	if _, _, _, ok := sp.SplitPrefix(Remainder{Root: &g}, g.Name, 1, 1); ok {
		t.Fatal("parts=1 accepted")
	}
}

// buildAndCount is the reference count FittingPieces replaces: build
// every piece and count the leading ones that fit, at most parts-1.
func buildAndCount(r Remainder, parts int, budget time.Duration) int {
	pieces, ok := r.Split(r.Root.Name, parts)
	if !ok {
		return 0
	}
	var acc time.Duration
	take := 0
	for _, p := range pieces {
		if acc+p.Duration > budget {
			break
		}
		acc += p.Duration
		take++
	}
	return min(take, parts-1)
}

// FittingPieces counts without building what building every piece and
// counting would: for every splittable OPT-30B kernel (context and
// decode, the horizontal GEMM split too, and split remainders) over
// budgets from nothing to past the whole kernel.
func TestFittingPiecesMatchesBuildAndCount(t *testing.T) {
	var kernels []KernelDesc
	for _, c := range []*Compiler{compilerFor(hw.A100Node()), NewCompiler(hw.A100Node(), nccl.Config{}, WithGEMMSplit(SplitHorizontal))} {
		for _, w := range []model.Workload{ctxWorkload(2, 64), ctxWorkload(8, 128), {Batch: 16, CtxLen: 512, Phase: model.Decode}} {
			ks, err := c.IntraOp(model.OPT30B(), 4, w)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, ks...)
		}
	}
	checked := 0
	for _, k := range kernels {
		if !k.CanSplit() {
			if (Remainder{Root: &k}).FittingPieces(8, k.Duration) != 0 {
				t.Fatalf("%s: indivisible kernel counted pieces", k.Name)
			}
			continue
		}
		descs := []KernelDesc{k}
		rems := []Remainder{{Root: &k}}
		var sp Splitter
		if _, rest, scale, ok := sp.SplitPrefix(rems[0], k.Name, 8, 3); ok {
			descs = append(descs, rest)
			rems = append(rems, Remainder{Root: &k, Scales: []float64{scale}})
		}
		for i, d := range descs {
			r := rems[i]
			for _, parts := range []int{1, 2, 3, 4, 8, 16} {
				for step := 0; step <= 24; step++ {
					budget := d.Duration * time.Duration(step) / 20
					if got, want := r.FittingPieces(parts, budget), buildAndCount(r, parts, budget); got != want {
						t.Fatalf("%s: %d-way split within %v: %d pieces fit, building and counting says %d",
							d.Name, parts, budget, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no splittable kernel checked")
	}
}

func TestNonDecomposableKernels(t *testing.T) {
	c := compilerFor(hw.V100Node())
	k, _ := c.IntraOp(model.Tiny(), 4, ctxWorkload(2, 16))
	for _, kd := range k {
		if strings.Contains(kd.Name, "ln") || strings.Contains(kd.Name, "attn.") {
			if kd.CanSplit() {
				t.Fatalf("%s should not be decomposable", kd.Name)
			}
		}
	}
}

func TestFig9VerticalBeatsHorizontal(t *testing.T) {
	cm := compilerFor(hw.V100Node()).CostModel()
	m, n, k := 128, 28672, 7168
	vert := SumDurations(GEMMSplitVertical(cm, m, n, k, 8))
	horiz := SumDurations(GEMMSplitHorizontal(cm, m, n, k, 8))
	orig := cm.GEMM(m, n, k)
	if vert <= orig {
		t.Fatalf("vertical sum %v not above original %v", vert, orig)
	}
	if float64(horiz) < 1.3*float64(vert) {
		t.Fatalf("horizontal %v should significantly exceed vertical %v", horiz, vert)
	}
}

func TestFig10jkInterThAnomaly(t *testing.T) {
	// §4.2 observes that for GLM-130B on the A100 node the accumulated
	// duration of the four partitioned GEMMs is *shorter* than the
	// original kernel for some GEMMs (column-split pieces keep good
	// efficiency while the row-partitioned original loses more).
	cm := compilerFor(hw.A100Node()).CostModel()
	h := 12288
	// FC2 full kernel: m x h x 4h; partitioned pieces: m x h x h each.
	full := cm.GEMM(128, h, 4*h)
	var pieces time.Duration
	for i := 0; i < 4; i++ {
		pieces += cm.GEMM(128, h, 4*h/4)
	}
	// The pieces shrink the inner dimension only — the sum is close to
	// the original; with the efficiency curve they can come out ahead
	// for some shapes. We assert they are at least not catastrophically
	// worse, preserving the anomaly's possibility.
	if float64(pieces) > 1.25*float64(full) {
		t.Fatalf("K-split pieces %v much worse than original %v", pieces, full)
	}
}

func TestInvalidConfigs(t *testing.T) {
	c := compilerFor(hw.V100Node())
	if _, err := c.IntraOp(model.Tiny(), 0, ctxWorkload(2, 16)); err == nil {
		t.Fatal("tp=0 accepted")
	}
	if _, err := c.IntraOp(model.Tiny(), 4, model.Workload{Batch: 0, SeqLen: 4, Phase: model.Context}); err == nil {
		t.Fatal("batch=0 accepted")
	}
	plan, err := c.IntraOpPlan(model.Tiny(), 1, ctxWorkload(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.CheckStages(9); err == nil {
		t.Fatal("more stages than layers accepted")
	}
	if err := plan.CheckStages(0); err == nil {
		t.Fatal("zero stages accepted")
	}
	if _, err := c.InterThPlan(model.Tiny(), 0, ctxWorkload(2, 16)); err == nil {
		t.Fatal("zero Inter-Th pieces accepted")
	}
	bad := model.Spec{Name: "bad", Layers: 2, Heads: 7, Hidden: 512, FFNMult: 4}
	if _, err := c.IntraOp(bad, 4, ctxWorkload(2, 16)); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestDecodeWorkloadCompile(t *testing.T) {
	c := compilerFor(hw.A100Node())
	w := model.Workload{Batch: 32, CtxLen: 16, Phase: model.Decode}
	k, err := c.IntraOp(model.OPT30B(), 4, w)
	if err != nil {
		t.Fatal(err)
	}
	comp, comm := TotalDurations(k)
	if comp <= 0 || comm <= 0 {
		t.Fatalf("decode plan durations: compute %v comm %v", comp, comm)
	}
	// LM head appears in decode mode.
	found := false
	for _, kd := range k {
		if strings.Contains(kd.Name, "lm_head") {
			found = true
		}
	}
	if !found {
		t.Fatal("decode plan lacks lm_head")
	}
}

func TestDecompositionOverheadMonotonicParts(t *testing.T) {
	cm := compilerFor(hw.V100Node()).CostModel()
	prev := 0.0
	for _, parts := range []int{2, 4, 8, 16} {
		r := DecompositionOverhead(cm, 128, 7168, 7168, parts)
		if r < 1 {
			t.Fatalf("overhead ratio %v below 1 at parts=%d", r, parts)
		}
		if r < prev {
			t.Fatalf("overhead ratio decreased at parts=%d: %v < %v", parts, r, prev)
		}
		prev = r
	}
}
