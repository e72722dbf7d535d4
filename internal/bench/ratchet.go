package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The perf ratchet: CI re-measures the guarded benchmark rows on
// every change and compares them against the committed snapshots. A
// fresh number more than tolerance worse than its baseline fails the
// build — "the benchmarks still print" stops counting as passing.
// Only coarse throughput/ratio series are guarded; tail latencies are
// too noisy on shared CI runners to gate merges on.

// RatchetMetric names one guarded series: a metric inside a row
// inside a snapshot file. HigherIsBetter orients the comparison
// (true for throughputs, false for ratios like moved bytes).
type RatchetMetric struct {
	File           string
	Row            string
	Metric         string
	HigherIsBetter bool
}

// GuardedMetrics is the ratchet's contract with CI: the headline
// series a regression must not silently erode. The remote small-op
// rows are the point of the pooled/batched serving path; the embedded
// row guards the engine itself; the blob row guards bulk bandwidth;
// the chunksync ratio guards the delta-sync win the paper is about.
var GuardedMetrics = []RatchetMetric{
	{File: "BENCH_net.json", Row: "small embedded", Metric: "puts_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "small embedded", Metric: "gets_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "small remote c=1 depth=8", Metric: "puts_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "small remote c=1 depth=8", Metric: "gets_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "small remote c=4 depth=32", Metric: "puts_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "small remote c=4 depth=32", Metric: "gets_per_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "blob64k remote c=4 depth=8", Metric: "put_mb_s", HigherIsBetter: true},
	{File: "BENCH_net.json", Row: "blob64k remote c=4 depth=8", Metric: "get_mb_s", HigherIsBetter: true},
	{File: "BENCH_chunksync.json", Row: "reread-1pct-edit 4.0MB", Metric: "chunksync_moved_ratio", HigherIsBetter: false},
}

// Ratchet compares fresh snapshots in freshDir against baselines in
// baselineDir for every guarded metric, writing one line per series
// to w. tolerance is the fractional degradation allowed (0.20 = a
// fresh number may be up to 20% worse). It returns the failures; a
// missing file, row or metric on either side is a failure too —
// silently dropping a guarded series is how ratchets die.
func Ratchet(w io.Writer, baselineDir, freshDir string, tolerance float64) []string {
	var failures []string
	files := map[string]struct{}{}
	for _, g := range GuardedMetrics {
		files[g.File] = struct{}{}
	}
	base := map[string]map[string]map[string]float64{}
	fresh := map[string]map[string]map[string]float64{}
	for f := range files {
		base[f] = loadRows(filepath.Join(baselineDir, f))
		fresh[f] = loadRows(filepath.Join(freshDir, f))
	}
	for _, g := range GuardedMetrics {
		name := fmt.Sprintf("%s / %s / %s", g.File, g.Row, g.Metric)
		b, bok := lookup(base[g.File], g.Row, g.Metric)
		f, fok := lookup(fresh[g.File], g.Row, g.Metric)
		switch {
		case !bok:
			failures = append(failures, name+": baseline missing")
			fmt.Fprintf(w, "FAIL %s: baseline missing\n", name)
			continue
		case !fok:
			failures = append(failures, name+": fresh measurement missing")
			fmt.Fprintf(w, "FAIL %s: fresh measurement missing\n", name)
			continue
		}
		// Degradation as a fraction of the baseline, oriented so
		// positive means worse regardless of the metric's direction.
		var worse float64
		if g.HigherIsBetter {
			worse = (b - f) / b
		} else {
			worse = (f - b) / b
		}
		if worse > tolerance {
			failures = append(failures, fmt.Sprintf("%s: %.2f -> %.2f (%.0f%% worse, tolerance %.0f%%)",
				name, b, f, worse*100, tolerance*100))
			fmt.Fprintf(w, "FAIL %s: %.2f -> %.2f (%.0f%% worse)\n", name, b, f, worse*100)
			continue
		}
		fmt.Fprintf(w, "ok   %s: %.2f -> %.2f (%+.0f%%)\n", name, b, f, -worse*100)
	}
	return failures
}

// loadRows reads one snapshot file into row -> metric -> value;
// unreadable or malformed files yield nil, which the lookup reports
// as a missing series.
func loadRows(path string) map[string]map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil
	}
	rows := make(map[string]map[string]float64, len(m.Rows))
	for _, r := range m.Rows {
		rows[r.Name] = r.Values
	}
	return rows
}

func lookup(rows map[string]map[string]float64, row, metric string) (float64, bool) {
	vals, ok := rows[row]
	if !ok {
		return 0, false
	}
	v, ok := vals[metric]
	return v, ok
}
