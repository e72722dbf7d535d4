// Package bench implements the experiment harness that regenerates
// every table and figure of the paper's evaluation (§6). Each Run*
// function drives the workload of one experiment and prints the same
// rows or series the paper reports; cmd/forkbench dispatches to them
// and the repository-root benchmarks wrap them in testing.B.
//
// Scales: the paper ran on a 64-node cluster; Scale
// configures laptop-sized defaults ("quick") or settings closer to the
// paper's ("paper"). Absolute numbers differ from the publication — the
// substrate here is an in-process simulation — but the comparisons'
// shapes (who wins, by roughly what factor, where crossovers fall) are
// the reproduction target. Performance claims cite the repository
// benchmark instead; see benchmark/README.md.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// bgCtx is the root context every benchmark runs under: benchmarks are
// the outermost caller, so there is no caller context to thread, and a
// single shared root keeps the measured loops free of per-op context
// construction.
//
//forkvet:allow ctxflow — benchmarks own their lifecycle; there is no caller to inherit a context from
var bgCtx = context.Background()

// TempDirFunc creates the scratch directories on-disk experiments use.
// The default prefers TMPDIR, then the working directory: on some
// hosts /tmp sits on a throttled mount that would dominate every
// persistence measurement. Test harnesses point it at
// testing.TB.TempDir so scratch space is tracked and removed by the
// testing framework even when an experiment aborts mid-way (call sites
// still RemoveAll eagerly, which is harmless under either backing).
var TempDirFunc = defaultTempDir

func defaultTempDir(pattern string) (string, error) {
	base := os.Getenv("TMPDIR")
	if base == "" {
		base = "."
	}
	return os.MkdirTemp(base, pattern)
}

// tempDir creates a scratch directory through TempDirFunc.
func tempDir(pattern string) (string, error) { return TempDirFunc(pattern) }

// Scale selects experiment sizes.
type Scale int

const (
	// Quick finishes each experiment in seconds.
	Quick Scale = iota
	// Paper raises sizes toward the paper's settings (minutes).
	Paper
)

// ParseScale maps a -scale flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	}
	return Quick, fmt.Errorf("bench: unknown scale %q (want quick or paper)", s)
}

// pick returns q under Quick and p under Paper.
func (s Scale) pick(q, p int) int {
	if s == Paper {
		return p
	}
	return q
}

// stopwatch collects durations for percentile reporting.
type stopwatch struct {
	samples []time.Duration
}

func (s *stopwatch) time(fn func()) {
	t0 := time.Now()
	fn()
	s.samples = append(s.samples, time.Since(t0))
}

func (s *stopwatch) add(d time.Duration) { s.samples = append(s.samples, d) }

// percentile returns the p-th percentile (0 < p <= 100).
func (s *stopwatch) percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), s.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(float64(len(sorted))*p/100) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// cdf returns (value, fraction<=value) points for plotting.
func (s *stopwatch) cdf(points int) []struct {
	V time.Duration
	F float64
} {
	sorted := append([]time.Duration(nil), s.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]struct {
		V time.Duration
		F float64
	}, 0, points)
	for i := 1; i <= points; i++ {
		idx := len(sorted)*i/points - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, struct {
			V time.Duration
			F float64
		}{sorted[idx], float64(i) / float64(points)})
	}
	return out
}

// table prints aligned rows.
type table struct {
	w    io.Writer
	cols []int
}

func newTable(w io.Writer, widths ...int) *table { return &table{w: w, cols: widths} }

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		w := 14
		if i < len(t.cols) {
			w = t.cols[i]
		}
		fmt.Fprintf(t.w, "%-*v", w, c)
	}
	fmt.Fprintln(t.w)
}

// opsPerSec formats a throughput.
func opsPerSec(n int, elapsed time.Duration) string {
	if elapsed == 0 {
		return "inf"
	}
	v := float64(n) / elapsed.Seconds()
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	}
	return fmt.Sprintf("%.1f", v)
}

func mib(n int64) string { return fmt.Sprintf("%.1fMB", float64(n)/(1<<20)) }
