package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"liger/internal/analyze"
	"liger/internal/metrics"
	"liger/internal/runner"
)

// ServingAnalysisJSONName is the compact serving-analysis aggregate:
// one row per runtime distilled from a fully traced serving point
// (written into RunConfig.JSONDir when set). tools/benchdiff reads it
// as the serving layer's regression surface.
const ServingAnalysisJSONName = "BENCH_serving_analysis.json"

// servingAnalysisRow condenses one runtime's traced serving point.
type servingAnalysisRow struct {
	Runtime string  `json:"runtime"`
	TTFTMs  float64 `json:"ttft_ms"`
	TPOTMs  float64 `json:"tpot_ms"`
	// SegmentsMs totals the per-request latency decomposition by kind
	// (queue, prefill, decode, ... — see internal/analyze); the kinds
	// sum to the runs' total request latency.
	SegmentsMs map[string]float64 `json:"segments_ms"`
	// Imbalance is max/mean pool busy time (1.0 on one pool).
	Imbalance float64 `json:"imbalance"`
	// Episodes counts KV-pressure windows; Preemptions and
	// RecomputedTokens price the evictions they forced.
	Episodes         int   `json:"episodes"`
	Preemptions      int64 `json:"preemptions"`
	RecomputedTokens int64 `json:"recomputed_tokens"`
	KVPeakBlocks     int   `json:"kv_peak_blocks"`
}

// servingAnalysis is the full aggregate artifact.
type servingAnalysis struct {
	Batches  int                  `json:"batches"`
	Prompt   int                  `json:"prompt"`
	Gen      int                  `json:"gen"`
	Seed     int64                `json:"seed"`
	RateFrac float64              `json:"rate_frac"`
	Pool     int                  `json:"pool"`
	Rows     []servingAnalysisRow `json:"rows"`
}

// writeServingObservability re-runs one fully traced serving point per
// runtime — the sweep's highest arrival fraction on its smallest pool,
// the point most likely to show admission queueing and KV pressure —
// and writes, into cfg.TraceDir, a serving Chrome trace
// (serving_<runtime>.trace.json: iteration lanes, KV-pressure
// counters, lifecycle instants), a serving metrics snapshot
// (serving_<runtime>.metrics.json) and the serving analysis
// (serving_<runtime>.serving.json: exact TTFT/TPOT decomposition,
// pool loads, pressure episodes). When cfg.JSONDir is set a compact
// per-runtime aggregate lands there as BENCH_serving_analysis.json.
// Points fan across the sweep executor; artifacts render to memory and
// are written in fixed kind order, so every file is byte-identical at
// any -parallel or -shards value.
func writeServingObservability(s servingSetup, cfg RunConfig, w io.Writer) error {
	if cfg.TraceDir == "" && cfg.JSONDir == "" {
		return nil
	}
	pt := servingPoint{frac: s.fractions[len(s.fractions)-1], pool: s.pools[0]}
	type artifact struct {
		runtime                 string
		trace, metrics, serving []byte
		row                     servingAnalysisRow
	}
	arts, err := runner.Map(cfg.Parallel, len(s.kinds), func(i int) (artifact, error) {
		p := pt
		p.kind = s.kinds[i]
		out, err := runServingPoint(s, p, cfg, true)
		if err != nil {
			return artifact{}, err
		}
		res, rec := out.Result, out.Recorder
		rep := analyze.AnalyzeServing(rec)
		snap := metrics.FromServing(p.kind.String(), rec, metrics.Options{})
		var tb, mb, sb bytes.Buffer
		if err := rec.WriteChromeTrace(&tb); err != nil {
			return artifact{}, err
		}
		if err := snap.WriteJSON(&mb); err != nil {
			return artifact{}, err
		}
		if err := rep.WriteJSON(&sb); err != nil {
			return artifact{}, err
		}
		row := servingAnalysisRow{
			Runtime:          p.kind.String(),
			TTFTMs:           float64(res.TTFT) / float64(time.Millisecond),
			TPOTMs:           float64(res.TPOT) / float64(time.Millisecond),
			SegmentsMs:       map[string]float64{},
			Imbalance:        rep.Imbalance,
			Episodes:         len(rep.Episodes),
			Preemptions:      rep.Counters["preemptions"],
			RecomputedTokens: rep.Counters["recomputed_tokens"],
			KVPeakBlocks:     int(snap.Gauges["kv_peak_blocks"]),
		}
		for k, v := range rep.SegmentNS {
			row.SegmentsMs[k] = float64(v) / 1e6
		}
		return artifact{runtime: p.kind.String(), trace: tb.Bytes(), metrics: mb.Bytes(),
			serving: sb.Bytes(), row: row}, nil
	})
	if err != nil {
		return err
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return err
		}
		for _, a := range arts {
			slug := runtimeSlug(a.runtime)
			names := map[string][]byte{
				"serving_" + slug + ".trace.json":   a.trace,
				"serving_" + slug + ".metrics.json": a.metrics,
				"serving_" + slug + ".serving.json": a.serving,
			}
			for _, name := range []string{
				"serving_" + slug + ".trace.json",
				"serving_" + slug + ".metrics.json",
				"serving_" + slug + ".serving.json",
			} {
				if err := os.WriteFile(filepath.Join(cfg.TraceDir, name), names[name], 0o644); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "traced: serving %.1fx pool %d under %s -> %s\n",
				pt.frac, pt.pool, a.runtime,
				filepath.Join(cfg.TraceDir, "serving_"+slug+".{trace,metrics,serving}.json"))
		}
	}
	agg := servingAnalysis{
		Batches:  cfg.Batches,
		Prompt:   s.prompt,
		Gen:      s.gen,
		Seed:     cfg.Seed,
		RateFrac: pt.frac,
		Pool:     pt.pool,
	}
	for _, a := range arts {
		agg.Rows = append(agg.Rows, a.row)
	}
	return writeJSON(cfg, ServingAnalysisJSONName, agg)
}
