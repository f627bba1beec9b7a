// Command benchdiff compares two machine-readable bench artifacts —
// BENCH_*.json sweeps, failover_*.analysis.json trace analyses, or
// *.metrics.json snapshots — metric by metric, and exits non-zero when
// any metric moved beyond a configurable relative threshold. It is the
// CI regression gate's reading of the observability layer:
//
//	go run ./tools/benchdiff -threshold 0.05 old/BENCH_failover.json new/BENCH_failover.json
//
// Every numeric leaf of each document becomes one dotted-path metric
// (rows[3].goodput, headline.recovery_ms.Liger, ...). Keys present on
// only one side are reported as structural drift, which fails the gate
// only under -structure; -warn downgrades threshold violations to
// warnings so the diff can ride along an otherwise green pipeline.
// -exact names metric paths (path.Match patterns, comma-separated) that
// must keep their exact value and be present on both sides, -warn or
// not: a run's deterministic readings, next to host timings that may
// only warn.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	threshold := flag.Float64("threshold", 0.05, "relative change that counts as a regression (0.05 = 5%)")
	warn := flag.Bool("warn", false, "report regressions but exit 0")
	all := flag.Bool("all", false, "print unchanged metrics too")
	exact := flag.String("exact", "", "comma-separated metric path patterns that must not change at all")
	structure := flag.Bool("structure", false, "fail when a metric is present on one side only")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchdiff [flags] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := loadMetrics(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := loadMetrics(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	var patterns []string
	if *exact != "" {
		patterns = strings.Split(*exact, ",")
	}
	rep := diffMetrics(old, cur, *threshold, patterns...)
	for _, line := range rep.format(*all) {
		fmt.Println(line)
	}
	fmt.Printf("benchdiff: %d metrics compared, %d beyond %.1f%%, %d exact mismatches, %d only-one-side\n",
		rep.compared, len(rep.regressions), 100**threshold, len(rep.mismatches)+len(rep.exactMissing), rep.structural)
	if len(rep.mismatches)+len(rep.exactMissing) > 0 || (*structure && rep.structural > 0) ||
		(len(rep.regressions) > 0 && !*warn) {
		os.Exit(1)
	}
}
