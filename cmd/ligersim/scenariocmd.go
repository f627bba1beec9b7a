package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"liger/internal/scenario"
)

// Subcommand dispatch: `ligersim run|validate|stress ...` drives the
// declarative scenario layer; a bare `ligersim -flags` keeps the
// original single-simulation behavior. Dispatch happens before
// flag.Parse so the subcommands own their flag sets.

// dispatchScenario handles a scenario subcommand; returns false when
// os.Args is not one, so main falls through to the classic CLI.
func dispatchScenario() bool {
	if len(os.Args) < 2 {
		return false
	}
	switch os.Args[1] {
	case "run":
		runScenarioCmd(os.Args[2:])
	case "validate":
		validateScenarioCmd(os.Args[2:])
	case "stress":
		stressCmd(os.Args[2:])
	default:
		return false
	}
	return true
}

// runScenarioCmd loads, compiles, serves, and asserts one or more
// scenario files. Exit status 1 means at least one scenario failed its
// assertions (or a file failed to load) — the CI contract.
func runScenarioCmd(args []string) {
	fs := flag.NewFlagSet("ligersim run", flag.ExitOnError)
	parallel := fs.Int("parallel", 0, "worker count for the per-runtime fan-out (results are identical at any value)")
	shards := fs.Int("shards", 0, "worker count of the sharded executor of fleet (cluster:) scenarios; single-node scenarios ignore it (results are identical at any value)")
	jsonOut := fs.String("json", "", "also write a machine-readable report to this file (one scenario only)")
	quiet := fs.Bool("q", false, "print only the per-scenario verdict lines")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ligersim run [flags] <scenario.yaml> [more.yaml ...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	if *jsonOut != "" && fs.NArg() > 1 {
		log.Fatal("-json takes a single scenario file")
	}
	failed := false
	for i, path := range fs.Args() {
		rep, err := runScenarioFile(path, *parallel, *shards)
		if err != nil {
			log.Printf("%s: %v", path, err)
			failed = true
			continue
		}
		if *quiet {
			fmt.Println(rep.Verdict())
		} else {
			if i > 0 {
				fmt.Println()
			}
			if err := rep.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
		if *jsonOut != "" {
			if err := writeJSONFile(*jsonOut, rep.WriteJSON); err != nil {
				log.Fatal(err)
			}
		}
		if !rep.Pass {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func runScenarioFile(path string, parallel, shards int) (*scenario.Report, error) {
	sc, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(sc)
	if err != nil {
		return nil, err
	}
	return scenario.Run(c, scenario.RunOptions{Parallel: parallel, Shards: shards})
}

// validateScenarioCmd loads and compiles without serving: a fast
// syntax-and-semantics gate for a scenario corpus.
func validateScenarioCmd(args []string) {
	fs := flag.NewFlagSet("ligersim validate", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ligersim validate <scenario.yaml> [more.yaml ...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}
	failed := false
	for _, path := range fs.Args() {
		sc, err := scenario.Load(path)
		if err == nil {
			_, err = scenario.Compile(sc)
		}
		if err != nil {
			fmt.Printf("%s: INVALID: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok (%s)\n", path, sc.Name)
	}
	if failed {
		os.Exit(1)
	}
}

// stressCmd runs the randomized fleet stress harness.
func stressCmd(args []string) {
	fs := flag.NewFlagSet("ligersim stress", flag.ExitOnError)
	n := fs.Int("n", 25, "number of randomized scenario instances")
	seed := fs.Int64("seed", 1, "master seed; same (n, seed) reproduces the report byte-for-byte")
	parallel := fs.Int("parallel", 0, "worker count across instances (results are identical at any value)")
	jsonOut := fs.String("json", "", "also write the machine-readable survival report to this file")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: ligersim stress [flags]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rep, err := scenario.Stress(scenario.StressConfig{
		N: *n, Seed: *seed, Parallel: *parallel,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rep.WriteJSON); err != nil {
			log.Fatal(err)
		}
	}
}

func writeJSONFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
