package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"liger/internal/serve"
)

// End-of-run assertions are one comparison per line:
//
//	liger.goodput >= 8.5            absolute floor (batches/s)
//	liger.p99 <= 12x                tail ceiling in solo batch durations
//	liger.slo_miss <= 5%            SLO-miss ceiling
//	liger.recovery_time <= 600ms    recovery-time bound
//	liger.completed >= 110          min-completed floor
//	liger.goodput >= intra.goodput  per-runtime comparison
//	liger.p99 <= 1.5 * intra.p99    comparison with headroom
//
// The left side is always runtime.metric; the right side is a literal
// (number, duration, percent, or solo multiple) or another
// runtime.metric with an optional numeric coefficient. Duration-valued
// metrics compare in seconds, ratio metrics as fractions.

// metricDef resolves one metric name against a serving result.
type metricDef struct {
	get func(serve.Result) float64
	// dur marks duration-valued metrics (rendered as durations).
	dur bool
}

var metricDefs = map[string]metricDef{
	"goodput":        {get: func(r serve.Result) float64 { return r.PolicyGoodput() }},
	"throughput":     {get: func(r serve.Result) float64 { return r.ThroughputBatches() }},
	"req_throughput": {get: func(r serve.Result) float64 { return r.ThroughputRequests() }},
	"slo_miss":       {get: func(r serve.Result) float64 { return r.SLOMissRate() }},
	"success_rate":   {get: func(r serve.Result) float64 { return r.SuccessRate() }},
	"avg_latency":    {get: func(r serve.Result) float64 { return r.AvgLatency.Seconds() }, dur: true},
	"p50":            {get: func(r serve.Result) float64 { return r.P50.Seconds() }, dur: true},
	"p95":            {get: func(r serve.Result) float64 { return r.P95.Seconds() }, dur: true},
	"p99":            {get: func(r serve.Result) float64 { return r.P99.Seconds() }, dur: true},
	"makespan":       {get: func(r serve.Result) float64 { return r.Makespan.Seconds() }, dur: true},
	"recovery_time":  {get: func(r serve.Result) float64 { return r.RecoveryTime.Seconds() }, dur: true},
	"ttft":           {get: func(r serve.Result) float64 { return r.TTFT.Seconds() }, dur: true},
	"tpot":           {get: func(r serve.Result) float64 { return r.TPOT.Seconds() }, dur: true},
	"preemptions":    {get: func(r serve.Result) float64 { return float64(r.Preemptions) }},
	"completed":      {get: func(r serve.Result) float64 { return float64(r.Completed) }},
	"requests":       {get: func(r serve.Result) float64 { return float64(r.Requests) }},
	"failed":         {get: func(r serve.Result) float64 { return float64(r.Failed) }},
	"shed":           {get: func(r serve.Result) float64 { return float64(r.Shed) }},
	"retries":        {get: func(r serve.Result) float64 { return float64(r.Retries) }},
	"deferred":       {get: func(r serve.Result) float64 { return float64(r.Deferred) }},
	"failovers":      {get: func(r serve.Result) float64 { return float64(r.Failovers) }},
	"hedges":         {get: func(r serve.Result) float64 { return float64(r.Hedges) }},
	"deadline_misses": {get: func(r serve.Result) float64 {
		return float64(r.DeadlineMisses)
	}},
	// Serving-telemetry metrics (continuous mode unless noted):
	// recomputed prefill tokens repaid after preemption, decode-iteration
	// and pool-occupancy aggregates, the paged allocator's peak block
	// occupancy, and the fleet router's load-shed count (fleet mode;
	// alias of shed, named for the router-decision stream it mirrors).
	"recomputed_tokens": {get: func(r serve.Result) float64 { return float64(r.RecomputedTokens) }},
	"iterations":        {get: func(r serve.Result) float64 { return float64(r.Iterations) }},
	"mean_pool":         {get: func(r serve.Result) float64 { return r.MeanPool }},
	"kv_peak_blocks":    {get: func(r serve.Result) float64 { return float64(r.KVPeakBlocks) }},
	"router_sheds":      {get: func(r serve.Result) float64 { return float64(r.Shed) }},
}

func metricNames() string {
	names := make([]string, 0, len(metricDefs))
	for k := range metricDefs {
		names = append(names, k)
	}
	// Stable order for error messages.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}

// metricRef is one runtime.metric operand.
type metricRef struct {
	runtime string // resolved result name ("Liger")
	alias   string // as written ("liger")
	metric  string
}

// literal is one right-hand-side constant.
type literal struct {
	num  float64
	spec TimeSpec // set for duration/percent/solo forms
	raw  string
}

// assertion is a parsed comparison.
type assertion struct {
	raw   string
	lhs   metricRef
	op    string
	coeff float64 // multiplier on the rhs ref (1 when absent)
	rhs   *metricRef
	lit   literal
}

var assertOps = []string{">=", "<=", "==", "!=", ">", "<"}

// parseAssertion parses one expression line.
func parseAssertion(expr string) (*assertion, error) {
	op, idx := "", -1
	for _, candidate := range assertOps {
		if i := strings.Index(expr, candidate); i >= 0 {
			op, idx = candidate, i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("no comparison operator in %q (want one of %s)", expr, strings.Join(assertOps, " "))
	}
	a := &assertion{raw: strings.TrimSpace(expr), op: op, coeff: 1}
	lhs, err := parseRef(strings.TrimSpace(expr[:idx]))
	if err != nil {
		return nil, err
	}
	a.lhs = *lhs
	rhs := strings.TrimSpace(expr[idx+len(op):])
	if rhs == "" {
		return nil, fmt.Errorf("missing right-hand side in %q", expr)
	}
	// Optional `coeff * ref` form.
	if star := strings.Index(rhs, "*"); star >= 0 {
		coeff, err := strconv.ParseFloat(strings.TrimSpace(rhs[:star]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coefficient %q in %q", strings.TrimSpace(rhs[:star]), expr)
		}
		a.coeff = coeff
		rhs = strings.TrimSpace(rhs[star+1:])
	}
	if strings.Contains(rhs, ".") && !isNumeric(rhs) {
		ref, err := parseRef(rhs)
		if err != nil {
			return nil, err
		}
		a.rhs = ref
		return a, nil
	}
	if a.coeff != 1 {
		return nil, fmt.Errorf("coefficient on a literal in %q — fold it into the number", expr)
	}
	lit, err := parseLiteral(rhs)
	if err != nil {
		return nil, fmt.Errorf("%w in %q", err, expr)
	}
	a.lit = lit
	return a, nil
}

func isNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func parseRef(s string) (*metricRef, error) {
	parts := strings.SplitN(s, ".", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("bad operand %q (want runtime.metric, e.g. liger.goodput)", s)
	}
	alias := strings.ToLower(strings.TrimSpace(parts[0]))
	kind, ok := runtimeAliases[alias]
	if !ok {
		return nil, fmt.Errorf("unknown runtime %q in %q (want liger, intra, inter, or interth)", parts[0], s)
	}
	metric := strings.TrimSpace(parts[1])
	if _, ok := metricDefs[metric]; !ok {
		return nil, fmt.Errorf("unknown metric %q in %q (want one of: %s)", metric, s, metricNames())
	}
	return &metricRef{runtime: kind.String(), alias: alias, metric: metric}, nil
}

func parseLiteral(s string) (literal, error) {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return literal{num: f, raw: s}, nil
	}
	spec, err := parseTimeSpecString(s, "literal")
	if err != nil || spec.IsZero() {
		return literal{}, fmt.Errorf("bad literal %q", s)
	}
	return literal{spec: spec, raw: s}, nil
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Expr string  `json:"expr"`
	Pass bool    `json:"pass"`
	LHS  float64 `json:"lhs"`
	RHS  float64 `json:"rhs"`
	// Detail renders both sides with units for the text report.
	Detail string `json:"detail"`
}

// evalContext carries what literal and metric resolution needs.
type evalContext struct {
	results map[string]serve.Result
	horizon time.Duration
	solo    time.Duration
}

// eval evaluates the assertion against the run's results.
func (a *assertion) eval(ctx evalContext) (AssertionResult, error) {
	out := AssertionResult{Expr: a.raw}
	lres, ok := ctx.results[a.lhs.runtime]
	if !ok {
		return out, fmt.Errorf("assertion %q references runtime %q, which this scenario does not run", a.raw, a.lhs.alias)
	}
	ldef := metricDefs[a.lhs.metric]
	out.LHS = ldef.get(lres)
	switch {
	case a.rhs != nil:
		rres, ok := ctx.results[a.rhs.runtime]
		if !ok {
			return out, fmt.Errorf("assertion %q references runtime %q, which this scenario does not run", a.raw, a.rhs.alias)
		}
		out.RHS = a.coeff * metricDefs[a.rhs.metric].get(rres)
	case !a.lit.spec.IsZero():
		if a.lit.spec.kind == timeFrac {
			// Percent literals are plain fractions (SLO-miss ceilings),
			// not horizon fractions.
			out.RHS = a.lit.spec.val
		} else {
			out.RHS = a.lit.spec.Resolve(ctx.horizon, ctx.solo).Seconds()
		}
	default:
		out.RHS = a.lit.num
	}
	switch a.op {
	case ">=":
		out.Pass = out.LHS >= out.RHS
	case "<=":
		out.Pass = out.LHS <= out.RHS
	case ">":
		out.Pass = out.LHS > out.RHS
	case "<":
		out.Pass = out.LHS < out.RHS
	case "==":
		out.Pass = out.LHS == out.RHS
	case "!=":
		out.Pass = out.LHS != out.RHS
	}
	render := func(v float64) string {
		if ldef.dur {
			return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
		}
		return strconv.FormatFloat(v, 'g', 6, 64)
	}
	out.Detail = fmt.Sprintf("%s=%s vs %s", a.lhs.alias+"."+a.lhs.metric, render(out.LHS), render(out.RHS))
	return out, nil
}
