// Command forkbench regenerates the tables and figures of the ForkBase
// paper's evaluation (§6). Each experiment prints the rows or series of
// the corresponding table/figure. Performance claims cite the
// repository benchmark instead; see benchmark/README.md.
//
// Usage:
//
//	forkbench [-scale quick|paper] [experiment ...]
//
// With no arguments every experiment runs in order. Experiments:
// table3 table4 fig8 fig9 fig11 fig12 fig13 fig14 fig15 fig16 fig17
// net chunksync ablations
//
// Beside the paper's tables, figures and §4.3 ablations, net measures
// loopback serving against pipelining depth and connection count, and
// chunksync the bytes a delta sync moves plus a cold read over an
// injected 1 ms round trip.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it checks every experiment name before it runs
// any, so a typo late in a long list fails at once. It returns the
// exit status: 2 for a usage error, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("forkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or paper")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: forkbench [-scale quick|paper] [experiment ...]\nexperiments:")
		for _, e := range experiments {
			fmt.Fprintf(stderr, " %s", e.name)
		}
		fmt.Fprintln(stderr)
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	todo := experiments
	if fs.NArg() > 0 {
		todo = nil
	}
	for _, name := range fs.Args() {
		found := false
		for _, e := range experiments {
			if e.name == name {
				todo = append(todo, e)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(stderr, "unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
	}
	for _, e := range todo {
		fmt.Fprintf(stdout, "=== %s ===\n", e.name)
		t0 := time.Now()
		if err := e.run(stdout, scale); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "(%s took %.1fs)\n\n", e.name, time.Since(t0).Seconds())
	}
	return 0
}
