// Command forkbench regenerates the tables and figures of the ForkBase
// paper's evaluation (§6). Each experiment prints the rows or series of
// the corresponding table/figure. Performance claims cite the
// repository benchmark instead; see benchmark/README.md.
//
// Usage:
//
//	forkbench [-scale quick|paper] [experiment ...]
//	forkbench ratchet [-tolerance 0.20] <baseline-dir> <fresh-dir>
//
// With no arguments every experiment runs in order. Experiments:
// table3 table4 fig8 fig9 fig11 fig12 fig13 fig14 fig15 fig16 fig17
// batchput cache gc recover net chunksync ablations
//
// The ratchet form compares fresh -json snapshots against committed
// baselines and exits non-zero when a guarded series degraded past
// the tolerance — the perf CI job's pass/fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"forkbase/internal/bench"
)

var experiments = []struct {
	name string
	run  func(io.Writer, bench.Scale) error
}{
	{"table3", bench.RunTable3},
	{"table4", bench.RunTable4},
	{"fig8", bench.RunFig8},
	{"fig9", bench.RunFig9},
	{"fig11", bench.RunFig11},
	{"fig12", bench.RunFig12},
	{"fig13", bench.RunFig13},
	{"fig14", bench.RunFig14},
	{"fig15", bench.RunFig15},
	{"fig16", bench.RunFig16},
	{"fig17", bench.RunFig17},
	{"batchput", bench.RunBatchPut},
	{"cache", bench.RunCache},
	{"gc", bench.RunGC},
	{"recover", bench.RunRecover},
	{"net", bench.RunNet},
	{"chunksync", bench.RunChunkSync},
	{"ablations", runAblations},
}

func runAblations(w io.Writer, s bench.Scale) error {
	for _, fn := range []func(io.Writer, bench.Scale) error{
		bench.RunAblationFixedVsPattern,
		bench.RunAblationChunkSize,
		bench.RunAblationHash,
		bench.RunAblationIndexPattern,
	} {
		if err := fn(w, s); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runRatchet implements the "ratchet" subcommand: compare fresh
// snapshot files against baselines and fail on regressions beyond
// the tolerance.
func runRatchet(args []string) {
	fs := flag.NewFlagSet("ratchet", flag.ExitOnError)
	tolerance := fs.Float64("tolerance", 0.20, "allowed fractional degradation per guarded metric")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: forkbench ratchet [-tolerance 0.20] <baseline-dir> <fresh-dir>")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	failures := bench.Ratchet(os.Stdout, fs.Arg(0), fs.Arg(1), *tolerance)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nperf ratchet: %d guarded series regressed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("\nperf ratchet: all %d guarded series within tolerance\n", len(bench.GuardedMetrics))
}

func main() {
	// The ratchet subcommand has its own flags; detect it before the
	// experiment flag set parses.
	if len(os.Args) > 1 && os.Args[1] == "ratchet" {
		runRatchet(os.Args[2:])
		return
	}
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	jsonDir := flag.String("json", "", "also write BENCH_<experiment>.json snapshots into this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: forkbench [-scale quick|paper] [experiment ...]\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, " %s", e.name)
		}
		fmt.Fprintln(os.Stderr)
	}
	flag.Parse()
	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	want := flag.Args()
	run := func(name string, fn func(io.Writer, bench.Scale) error) {
		fmt.Printf("=== %s ===\n", name)
		if *jsonDir != "" {
			bench.Sink = &bench.Metrics{Experiment: name, Scale: scale.String()}
		}
		t0 := time.Now()
		if err := fn(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(t0).Seconds())
		if sink := bench.Sink; sink != nil {
			bench.Sink = nil
			if len(sink.Rows) == 0 {
				return // experiment has no machine-readable series
			}
			out, err := json.MarshalIndent(sink, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: snapshot: %v\n", name, err)
				os.Exit(1)
			}
			path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
			if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "%s: snapshot: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if len(want) == 0 {
		for _, e := range experiments {
			run(e.name, e.run)
		}
		return
	}
	for _, name := range want {
		found := false
		for _, e := range experiments {
			if e.name == name {
				run(e.name, e.run)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
}
