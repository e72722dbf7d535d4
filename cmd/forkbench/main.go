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

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
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
		t0 := time.Now()
		if err := fn(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n\n", name, time.Since(t0).Seconds())
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
