package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path"
	"sort"
)

// loadMetrics reads a JSON document and flattens every numeric leaf
// into a dotted-path metric map.
func loadMetrics(path string) (map[string]float64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	flatten("", doc, out)
	return out, nil
}

// flatten walks a decoded JSON value, recording numeric leaves under
// dotted object paths and indexed array paths. Booleans count as 0/1
// so flag flips (e.g. a row turning "failed") register as deltas;
// strings and nulls are structure, not metrics.
func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case float64:
		out[prefix] = x
	case bool:
		if x {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	}
}

// delta is one metric's movement between the two documents.
type delta struct {
	key      string
	old, cur float64
	rel      float64 // |cur-old| relative to |old| (or absolute when old == 0)
}

// report is the comparison result: per-metric deltas plus counts the
// caller turns into an exit code.
type report struct {
	deltas      []delta
	regressions []delta
	// mismatches are the exact metrics that changed at all, and
	// exactMissing the exact metrics present on one side only.
	mismatches   []delta
	exactMissing []string
	onlyOld      []string
	onlyNew      []string
	compared     int
	structural   int
}

// isExact reports whether key matches one of the exact-path patterns
// (path.Match syntax: "workloads.*.gpusim.kernels").
func isExact(key string, exact []string) bool {
	for _, p := range exact {
		if ok, _ := path.Match(p, key); ok {
			return true
		}
	}
	return false
}

// diffMetrics compares the documents' shared numeric metrics. A metric
// whose path matches an exact pattern must not change at all, and must
// be on both sides; any other metric whose relative change exceeds
// threshold is a regression. Keys that exist on only one side are
// structural drift.
func diffMetrics(old, cur map[string]float64, threshold float64, exact ...string) report {
	var rep report
	for k, ov := range old {
		cv, ok := cur[k]
		if !ok {
			rep.onlyOld = append(rep.onlyOld, k)
			continue
		}
		rep.compared++
		rel := relChange(ov, cv)
		d := delta{key: k, old: ov, cur: cv, rel: rel}
		rep.deltas = append(rep.deltas, d)
		switch {
		case isExact(k, exact):
			if ov != cv {
				rep.mismatches = append(rep.mismatches, d)
			}
		case rel > threshold:
			rep.regressions = append(rep.regressions, d)
		}
	}
	for k := range cur {
		if _, ok := old[k]; !ok {
			rep.onlyNew = append(rep.onlyNew, k)
		}
	}
	for _, keys := range [][]string{rep.onlyOld, rep.onlyNew} {
		for _, k := range keys {
			if isExact(k, exact) {
				rep.exactMissing = append(rep.exactMissing, k)
			}
		}
	}
	byKey := func(ds []delta) {
		sort.Slice(ds, func(i, j int) bool { return ds[i].key < ds[j].key })
	}
	byKey(rep.deltas)
	byKey(rep.regressions)
	byKey(rep.mismatches)
	sort.Strings(rep.onlyOld)
	sort.Strings(rep.onlyNew)
	sort.Strings(rep.exactMissing)
	rep.structural = len(rep.onlyOld) + len(rep.onlyNew)
	return rep
}

// relChange measures how far cur drifted from old. Against a zero
// baseline any nonzero value is an infinite relative change; report
// the absolute value instead so tiny float dust still reads sensibly.
func relChange(old, cur float64) float64 {
	if old == cur {
		return 0
	}
	if old == 0 {
		return math.Abs(cur)
	}
	return math.Abs(cur-old) / math.Abs(old)
}

// format renders the report: regressions first, then sub-threshold
// changes, then (with all) unchanged metrics, then structural drift.
func (r report) format(all bool) []string {
	over := map[string]bool{}
	var lines []string
	for _, d := range r.mismatches {
		over[d.key] = true
		lines = append(lines, fmt.Sprintf("MISMATCH %s: %g -> %g (exact)", d.key, d.old, d.cur))
	}
	for _, k := range r.exactMissing {
		lines = append(lines, "MISSING  "+k+" (exact)")
	}
	for _, d := range r.regressions {
		over[d.key] = true
		lines = append(lines, fmt.Sprintf("REGRESSION %s: %g -> %g (%+.1f%%)", d.key, d.old, d.cur, signedPct(d)))
	}
	for _, d := range r.deltas {
		switch {
		case over[d.key]:
		case d.rel > 0:
			lines = append(lines, fmt.Sprintf("  changed  %s: %g -> %g (%+.1f%%)", d.key, d.old, d.cur, signedPct(d)))
		case all:
			lines = append(lines, fmt.Sprintf("  same     %s: %g", d.key, d.old))
		}
	}
	for _, k := range r.onlyOld {
		lines = append(lines, "  only-old "+k)
	}
	for _, k := range r.onlyNew {
		lines = append(lines, "  only-new "+k)
	}
	return lines
}

func signedPct(d delta) float64 {
	if d.old == 0 {
		return 100 * d.cur
	}
	return 100 * (d.cur - d.old) / math.Abs(d.old)
}
