package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"liger/internal/analyze"
	"liger/internal/metrics"
	"liger/internal/runner"
	"liger/internal/scenario"
)

// writeFailoverObservability re-runs one fully traced failure point per
// runtime — device 0 failing at the sweep's first instant — and writes,
// into cfg.TraceDir, a Chrome trace (failover_<runtime>.trace.json), a
// metrics snapshot (failover_<runtime>.metrics.json) and a trace
// analysis (failover_<runtime>.analysis.json: critical path, idle-gap
// attribution, overlap efficiency) for each. The traced points are
// independent simulations, so they fan across the sweep executor;
// artifacts are rendered to memory per point and written in fixed kind
// order, so the files are byte-identical at any -parallel value.
func writeFailoverObservability(cfg RunConfig, w io.Writer) error {
	if cfg.TraceDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return err
	}
	type artifact struct {
		runtime                  string
		trace, metrics, analysis []byte
	}
	pts := make([]failoverPoint, len(headlineKinds))
	for i, kind := range headlineKinds {
		pts[i] = failoverPoint{kind: kind, dev: 0, atFrac: failoverInstants(cfg)[0]}
	}
	arts, err := runner.Map(cfg.Parallel, len(pts), func(i int) (artifact, error) {
		out, err := runScenario(failoverScenario(pts[i], cfg), pts[i].kind, scenario.RunOptions{Trace: true})
		if err != nil {
			return artifact{}, err
		}
		res, rec := out.Result, out.Recorder
		var tb, mb, ab bytes.Buffer
		if err := rec.WriteChromeTrace(&tb); err != nil {
			return artifact{}, err
		}
		if err := metrics.FromRun(res, rec).WriteJSON(&mb); err != nil {
			return artifact{}, err
		}
		if err := analyze.Analyze(rec, analyze.Options{}).WriteJSON(&ab); err != nil {
			return artifact{}, err
		}
		return artifact{runtime: res.Runtime, trace: tb.Bytes(), metrics: mb.Bytes(), analysis: ab.Bytes()}, nil
	})
	if err != nil {
		return err
	}
	for i, a := range arts {
		slug := runtimeSlug(a.runtime)
		traceName := "failover_" + slug + ".trace.json"
		metricsName := "failover_" + slug + ".metrics.json"
		analysisName := "failover_" + slug + ".analysis.json"
		if err := os.WriteFile(filepath.Join(cfg.TraceDir, traceName), a.trace, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.TraceDir, metricsName), a.metrics, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.TraceDir, analysisName), a.analysis, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "traced: dev0@%.0f%% under %s -> %s, %s, %s\n",
			100*pts[i].atFrac, a.runtime,
			filepath.Join(cfg.TraceDir, traceName), filepath.Join(cfg.TraceDir, metricsName),
			filepath.Join(cfg.TraceDir, analysisName))
	}
	return nil
}

// runtimeSlug turns a runtime's display name ("Intra-Op") into a
// filename-safe lowercase slug ("intra-op").
func runtimeSlug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, " ", "-"))
}
