// Command forkvet runs the repository's custom static analyzers — the
// invariants the type system cannot express but the store depends on:
//
//	ctxflow         no fresh root contexts in library code (PR 5)
//	lockhold        no blocking calls under a stripe/table/index lock (PR 2-4)
//	sentinelcmp     sentinel errors compared with errors.Is, never == (PR 5)
//	chunkalias      no payload mutation after chunk.New takes ownership (PR 6)
//	obsmetrics      metrics registered through internal/obs, not ad-hoc
//	                atomics no export surface can see (PR 10)
//
// Usage:
//
//	forkvet [packages]     # defaults to ./...
//
// Diagnostics print as file:line:col: message (name) and any finding
// makes the process exit 1, so CI can gate on it. A deliberate
// violation is silenced in place with
//
//	//forkvet:allow <analyzer>[,<analyzer>] — reason
//
// on the offending line, the line above, or the declaration's doc
// comment. The reason is mandatory by convention: an allow without a
// why does not survive review.
package main

import (
	"fmt"
	"os"

	"forkbase/internal/analysis"
	"forkbase/internal/analysis/chunkalias"
	"forkbase/internal/analysis/ctxflow"
	"forkbase/internal/analysis/lockhold"
	"forkbase/internal/analysis/obsmetrics"
	"forkbase/internal/analysis/sentinelcmp"
)

var analyzers = []*analysis.Analyzer{
	chunkalias.Analyzer,
	ctxflow.Analyzer,
	lockhold.Analyzer,
	obsmetrics.Analyzer,
	sentinelcmp.Analyzer,
}

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "forkvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forkvet:", err)
		os.Exit(2)
	}
	findings, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "forkvet:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "forkvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
