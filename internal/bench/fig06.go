package bench

import (
	"fmt"
	"io"
	"time"

	"liger/internal/core"
	"liger/internal/gpusim"
	"liger/internal/hw"
	"liger/internal/model"
	"liger/internal/serve"
	"liger/internal/simclock"
	"liger/internal/trace"
)

// RunFig06 renders the Fig. 6 illustration as measured execution: the
// kernel timeline of device 0 under each parallelism approach, for a
// short dense burst of batches. Intra-Op alternates compute ('#') and
// communication ('=') with the comm slots leaving compute idle;
// Inter-Op (stage 0) is pure compute; Liger fills compute gaps with
// other batches' communication and vice versa.
func RunFig06(cfg RunConfig, w io.Writer) error {
	node := hw.A100Node()
	spec := model.OPT30B().WithLayers(6)
	// The timeline renders only the first 6 ms, so the demo caps the
	// configured batch count at 8; smaller cfg.Batches (quick test
	// configs) propagate through.
	batches := cfg.Batches
	if batches > 8 {
		batches = 8
	}
	tr, err := serve.Generate(serve.TraceConfig{
		Batches:    batches,
		BatchSize:  2,
		RatePerSec: 400, // dense burst so batches queue and interleave
		MinSeq:     64,
		MaxSeq:     64,
		Seed:       3,
	})
	if err != nil {
		return err
	}
	for _, kind := range []core.RuntimeKind{core.KindIntraOp, core.KindInterOp, core.KindLiger} {
		rec := trace.NewRecorder()
		eng, err := core.NewEngine(core.Options{Node: node, Model: spec, Runtime: kind, Tracer: rec})
		if err != nil {
			return err
		}
		res, err := eng.Serve(tr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s (device 0, first 6ms; '#'=compute, '='=communication)\n", kind)
		tl := trace.NewTimeline(deviceOnly(rec, 0), 96)
		if err := tl.Render(w, 0, simclock.Time(6*time.Millisecond)); err != nil {
			return err
		}
		fmt.Fprintf(w, "makespan %v, overlap on device 0: %v\n",
			res.Makespan.Round(time.Microsecond), rec.OverlapTime(0).Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\npaper (Fig. 6): interleaved parallelism inserts other batches' kernels into idle slots of the opposite resource")
	return nil
}

// deviceOnly filters a recorder's spans to one device so the timeline
// shows a single pair of rows.
func deviceOnly(rec *trace.Recorder, dev int) *trace.Recorder {
	out := trace.NewRecorder()
	for _, s := range rec.Spans() {
		if s.Device == dev {
			sp := gpusim.KernelSpan(s)
			sp.Device = 0
			out.KernelSpan(sp)
		}
	}
	return out
}
