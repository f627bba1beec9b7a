package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"liger/internal/serve"
)

// WriteText renders the deterministic human-readable report: header,
// compiled chaos plan, per-runtime serving table, assertion outcomes,
// and the verdict line. The bytes are a pure function of the scenario
// and seed — CI compares them across -parallel and -shards settings.
func (r *Report) WriteText(w io.Writer) error {
	c := r.Compiled
	if _, err := fmt.Fprintf(w, "scenario  : %s", r.Scenario); err != nil {
		return err
	}
	if c.Scenario.Description != "" {
		fmt.Fprintf(w, " — %s", c.Scenario.Description)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "node      : %s (%d GPUs), model %s\n", c.Node.Name, c.Node.NumGPUs, c.Model.Name)
	seed := c.Scenario.Workload.Seed
	if cp := c.Continuous; cp != nil {
		fmt.Fprintf(w, "trace     : %d sequences, poisson rate %.3f/s, seed %d, horizon %s\n",
			cp.Sequences, c.Rate, seed, fmtDur(c.Horizon))
		fmt.Fprintf(w, "serving   : continuous (prompt %d + gen %d tokens, pool %d), kv %s\n",
			cp.Prompt, cp.Gen, cp.Pool, kvDesc(cp))
		if cp.Prefill > 0 {
			fmt.Fprintf(w, "pools     : %d prefill + %d decode nodes over %s (%.0f GB/s, %s one-way)\n",
				cp.Prefill, cp.Decode, cp.Network.Name, cp.Network.EffectiveBWGBs(), fmtDur(cp.Network.Latency))
		}
	} else {
		fmt.Fprintf(w, "trace     : %d batches, %s rate %.3f/s, seed %d, horizon %s\n",
			c.Trace.Batches, c.Trace.Process, c.Rate, seed, fmtDur(c.Horizon))
	}
	if c.Cluster != nil {
		fmt.Fprintf(w, "cluster   : %d replicas + %d spares over %s (%.0f GB/s, %s one-way)\n",
			c.Cluster.Nodes, c.Cluster.Spares, c.Cluster.Network.Name,
			c.Cluster.Network.EffectiveBWGBs(), fmtDur(c.Cluster.Network.Latency))
	}
	if pol := c.Policy; pol.Deadline > 0 || pol.MaxRetries > 0 || pol.QueueLimit > 0 {
		fmt.Fprintf(w, "policy    : deadline %s, %d retries, backoff %s (cap %s), queue limit %d",
			fmtDur(pol.Deadline), pol.MaxRetries, fmtDur(pol.Backoff), fmtDur(pol.BackoffCap), pol.QueueLimit)
		if c.Hedge > 0 {
			fmt.Fprintf(w, ", hedge %s", fmtDur(c.Hedge))
		}
		fmt.Fprintln(w)
	}
	if !c.Schedule.Empty() {
		fmt.Fprintf(w, "chaos     : %d events, watchdog %s\n", len(c.Schedule.Events), fmtDur(c.Schedule.CollTimeout))
		for i, e := range c.Schedule.Events {
			fmt.Fprintf(w, "  [%d] %s\n", i, e)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if c.Continuous != nil {
		fmt.Fprintln(tw, "runtime\tttft\ttpot\tp99\tcompleted\tpreempted\tmakespan")
		for _, res := range r.Results {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
				res.Runtime, fmtDur(res.TTFT), fmtDur(res.TPOT), fmtDur(res.P99),
				res.Completed, res.Preemptions, fmtDur(res.Makespan))
		}
	} else {
		fmt.Fprintln(tw, "runtime\tgoodput\tp99\tslo-miss\tcompleted\tfailed\tshed\tretries\trecovery")
		for _, res := range r.Results {
			fmt.Fprintf(tw, "%s\t%.3f\t%s\t%.1f%%\t%d\t%d\t%d\t%d\t%s\n",
				res.Runtime, res.PolicyGoodput(), fmtDur(res.P99), 100*res.SLOMissRate(),
				res.Completed, res.Failed, res.Shed, res.Retries, fmtDur(res.RecoveryTime))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(r.Assertions) > 0 {
		fmt.Fprintln(w, "assert:")
		for _, a := range r.Assertions {
			verdict := "PASS"
			if !a.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "  %s  %-40s  (%s)\n", verdict, a.Expr, a.Detail)
		}
	}
	_, err := fmt.Fprintln(w, r.Verdict())
	return err
}

// reportDoc is the JSON layout. Results key by runtime name so
// tools/benchdiff can diff scenario artifacts by dotted path
// (results.Liger.goodput, assertions[2].lhs, ...); encoding/json sorts
// map keys, so the bytes are a pure function of the report value.
type reportDoc struct {
	Scenario    string                  `json:"scenario"`
	Description string                  `json:"description,omitempty"`
	Node        string                  `json:"node"`
	GPUs        int                     `json:"gpus"`
	Cluster     *clusterDoc             `json:"cluster,omitempty"`
	Model       string                  `json:"model"`
	Seed        int64                   `json:"seed"`
	Batches     int                     `json:"batches"`
	Rate        float64                 `json:"rate"`
	Process     string                  `json:"process"`
	HorizonMs   float64                 `json:"horizon_ms"`
	SoloMs      float64                 `json:"solo_ms"`
	Serving     *continuousDoc          `json:"serving,omitempty"`
	Pass        bool                    `json:"pass"`
	Results     map[string]serve.Result `json:"results"`
	Assertions  []AssertionResult       `json:"assertions"`
}

// continuousDoc is the continuous-serving block of the JSON report;
// absent for batch scenarios so their artifacts are unchanged.
type continuousDoc struct {
	Sequences int    `json:"sequences"`
	Prompt    int    `json:"prompt"`
	Gen       int    `json:"gen"`
	Pool      int    `json:"pool"`
	KV        string `json:"kv"`
	// Prefill, Decode and Network describe disaggregated pools; absent
	// for single-node runs.
	Prefill int    `json:"prefill,omitempty"`
	Decode  int    `json:"decode,omitempty"`
	Network string `json:"network,omitempty"`
}

// clusterDoc is the fleet topology block of the JSON report; absent
// for single-node scenarios so their artifacts are unchanged.
type clusterDoc struct {
	Nodes   int     `json:"nodes"`
	Spares  int     `json:"spares"`
	Network string  `json:"network"`
	ProbeMs float64 `json:"probe_ms,omitempty"`
	HedgeMs float64 `json:"hedge_ms,omitempty"`
}

// WriteJSON renders the machine-readable report.
func (r *Report) WriteJSON(w io.Writer) error {
	c := r.Compiled
	doc := reportDoc{
		Scenario:    r.Scenario,
		Description: c.Scenario.Description,
		Node:        c.Node.Name,
		GPUs:        c.Node.NumGPUs,
		Model:       c.Model.Name,
		Seed:        c.Scenario.Workload.Seed,
		Batches:     c.Trace.Batches,
		Rate:        c.Rate,
		Process:     c.Trace.Process.String(),
		HorizonMs:   ms(c.Horizon),
		SoloMs:      ms(c.Solo),
		Pass:        r.Pass,
		Results:     make(map[string]serve.Result, len(r.Results)),
		Assertions:  r.Assertions,
	}
	if cp := c.Continuous; cp != nil {
		doc.Serving = &continuousDoc{
			Sequences: cp.Sequences,
			Prompt:    cp.Prompt,
			Gen:       cp.Gen,
			Pool:      cp.Pool,
			KV:        kvDesc(cp),
		}
		if cp.Prefill > 0 {
			doc.Serving.Prefill, doc.Serving.Decode, doc.Serving.Network = cp.Prefill, cp.Decode, cp.Network.Name
		}
	}
	if c.Cluster != nil {
		doc.Cluster = &clusterDoc{
			Nodes:   c.Cluster.Nodes,
			Spares:  c.Cluster.Spares,
			Network: c.Cluster.Network.Name,
			ProbeMs: ms(c.Probe),
			HedgeMs: ms(c.Hedge),
		}
	}
	for _, res := range r.Results {
		doc.Results[res.Runtime] = res
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

func kvDesc(cp *ContinuousPlan) string {
	return fmt.Sprintf("paged (block %d, watermark %.0f%%)", cp.Block, 100*cp.Watermark)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtDur rounds for display stability (full-precision nanoseconds are
// deterministic too, but unreadable in a table).
func fmtDur(d time.Duration) string {
	if d == 0 {
		return "0s"
	}
	return d.Round(time.Microsecond).String()
}
