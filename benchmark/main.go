// Command benchmark is the repository's yardstick: four named
// workloads, each checked against an in-memory model, reported as the
// end-to-end metrics BENCHMARK.json names, plus a traced run that
// breaks the same traffic down by layer. See README.md beside this
// file for definitions, and BENCHMARK.json for the contract.
//
//	bash benchmark/run.sh --workload kv-small-remote --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --runs 3 --out a.json
//	bash benchmark/run.sh compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// program's side of BENCHMARK.json; the smoke test holds them equal.
type metricDef struct {
	name, unit string
	higher     bool // true when a larger value is better
}

var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s", true},
	{"read_p50_us", "us", false},
	{"write_p50_us", "us", false},
	{"scan_p50_us", "us", false},
	{"stored_bytes_per_user_byte", "ratio", false},
	{"peak_rss_mb", "MB", false},
	{"setup_s", "s", false},
}

var workloadNames = []string{"kv-small-remote", "blob-edit-remote", "ledger-embedded", "dataset-embedded"}

func newWorkload(name string) (scenario, error) {
	switch name {
	case "blob-edit-remote":
		return &blobWorkload{}, nil
	case "ledger-embedded":
		return &ledgerWorkload{}, nil
	case "dataset-embedded":
		return &datasetWorkload{}, nil
	case "kv-small-remote":
		return &kvWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// value is one reported number; the JSON shape is the contract's.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	tmp      string // parent of the per-run scratch directories
	traceDir string
	log      io.Writer // human-readable report
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var o options
	var trace, runs int
	var scale, out string
	flag.StringVar(&o.workload, "workload", "all", "workload name, a comma-separated list run in that order, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer pass instead of the end-to-end one")
	flag.StringVar(&scale, "scale", "full", "full, or smoke for the tiny sizes the tests use")
	flag.IntVar(&runs, "runs", 1, "runs per workload; with -out, the file keeps each metric's median and quartiles")
	flag.StringVar(&out, "out", "", "write the set of runs to this file, for compare")
	flag.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "parent directory for scratch stores")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join("benchmark", "out"), "where a traced pass writes its span file")
	flag.Parse()
	o.trace, o.smoke, o.log = trace != 0, scale == "smoke", os.Stdout

	names := strings.Split(o.workload, ",") // run in the order given
	if o.workload == "all" {
		names = workloadNames
	}
	set := newRunSet()
	failed := false
	for r := 0; r < runs; r++ {
		for _, name := range names {
			o.workload = name
			res, err := run(context.Background(), o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				os.Exit(2)
			}
			set.add(name, res)
			line, _ := json.Marshal(res)
			fmt.Fprintf(os.Stdout, "%s\n", line)
			failed = failed || !res.Correct
		}
	}
	if out != "" {
		if err := set.write(out); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// pretouchBytes is more than any run's resident set plus the file
// pages it dirties.
const pretouchBytes = 3 << 30

// pretouch writes to every page of a large allocation and gives it
// back to the operating system. On a virtual machine whose memory the
// host backs lazily, the first touch of a page costs several times a
// later one (measured here: 3.9 s/GiB against 0.6), and a run whose
// heap or file cache grows into never-touched memory slows down by a
// quarter part-way through, at a point that depends on what ran
// before. Every run starts with this, so every run draws on pages the
// host already backs. It ends by restarting the peak-RSS mark, so the
// 3 GiB — and, when one process runs several workloads, the earlier
// ones' heaps — do not show in peak_rss_mb.
func pretouch() {
	buf := make([]byte, pretouchBytes)
	for i := 0; i < len(buf); i += 4 << 10 {
		buf[i] = 1
	}
	runtime.KeepAlive(buf)
	buf = nil
	debug.FreeOSMemory()
	resetPeakRSS()
}

// run executes one workload once: the end-to-end pass, or with
// o.trace the per-layer pass.
func run(ctx context.Context, o options) (result, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return result{}, err
	}
	if !o.smoke {
		pretouch()
	}
	if o.trace {
		return runTraced(ctx, o)
	}
	return runEndToEnd(ctx, o)
}

// setUp builds a fresh workload in a fresh scratch directory and
// returns how long its set-up took.
func setUp(ctx context.Context, o options, tr *tracer) (scenario, string, time.Duration, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, "", 0, err
	}
	dir, err := os.MkdirTemp(o.tmp, o.workload+"-")
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	err = w.setup(ctx, &env{seed: o.seed, dir: dir, smoke: o.smoke, tr: tr})
	took := time.Since(start)
	if err != nil {
		w.close()
		os.RemoveAll(dir)
		return nil, "", 0, fmt.Errorf("set-up: %w", err)
	}
	return w, dir, took, nil
}

func tearDown(w scenario, dir string) error {
	err := w.close()
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// warmupShare: the untimed warm-up lasts 1/warmupShare of the measured
// phase — long enough for the ledger's chunk cache to fill and start
// evicting, the state it then stays in.
const warmupShare = 4

// setupRepeats is how many times the end-to-end pass sets up; setup_s
// is the median, the run proceeds on the last.
const setupRepeats = 3

func runEndToEnd(ctx context.Context, o options) (result, error) {
	var (
		w      scenario
		dir    string
		setups []float64
	)
	repeats := setupRepeats
	if o.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if w != nil {
			if err := tearDown(w, dir); err != nil {
				return result{}, err
			}
			w = nil
			runtime.GC()
		}
		var took time.Duration
		var err error
		if w, dir, took, err = setUp(ctx, o, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	recs := make([]*recorder, w.clients())
	for c := range recs {
		recs[c] = &recorder{}
	}
	measure := time.Duration(o.seconds * float64(time.Second))
	drive(ctx, w, recs, measure/warmupShare) // caches fill, pools and heaps grow, nothing is recorded
	runtime.GC()
	before := w.counters()
	for _, r := range recs {
		r.measuring = true
	}
	walls := drive(ctx, w, recs, measure)
	after := w.counters()
	for _, r := range recs {
		r.measuring = false
	}
	w.verify(ctx, recs[0])
	if err := tearDown(w, dir); err != nil {
		return result{}, err
	}

	res := result{Metrics: make(map[string]value)}
	var all recorder
	var rate float64
	var ops int64
	for c, r := range recs {
		res.Attempted += r.ops + r.checks
		res.Failed += r.failed
		ops += r.ops
		rate += float64(r.ops) / walls[c].Seconds()
		all.written += r.written
		for cl := range r.lat {
			all.lat[cl] = append(all.lat[cl], r.lat[cl]...)
		}
		all.marks = append(all.marks, r.marks...)
		if all.firstErr == "" {
			all.firstErr = r.firstErr
		}
	}
	res.Correct = res.Failed == 0
	// report prints one end-to-end metric and files it in the result.
	report := func(name string, v float64, note string) {
		for _, m := range endToEndMetrics {
			if m.name == name {
				res.Metrics[name] = value{v, m.unit}
				fmt.Fprintf(o.log, "  %-28s %16.4f %-6s %s\n", name, v, m.unit, note)
			}
		}
	}
	fmt.Fprintf(o.log, "workload %s seed %d: %d ops in %.2fs measured, %d ops and checks failed of %d\n", o.workload, o.seed, ops, walls[0].Seconds(), res.Failed, res.Attempted)
	if all.firstErr != "" {
		fmt.Fprintf(o.log, "  first failure: %s\n", all.firstErr)
	}
	report("ops_per_s", rate, "")
	sliceRates := make([]float64, slices)
	for _, r := range recs {
		for i, n := range r.sliceOps {
			sliceRates[i] += float64(n) / r.sliceLen.Seconds()
		}
	}
	fmt.Fprintf(o.log, "  per-slice ops/s %.0f (median %.2f)\n", sliceRates, median(sliceRates))
	for cl := class(0); cl < numClasses; cl++ {
		s := summarize(all.lat[cl])
		report(classNames[cl]+"_p50_us", s.p50, fmt.Sprintf("n=%d  %s_p99_us=%.2f  %s=%.2f us", s.n, classNames[cl], s.p99, s.topName, s.top))
	}
	stored := storedPerUserByte(before, after, &all)
	report("stored_bytes_per_user_byte", stored, fmt.Sprintf("(%d logical bytes written)", all.written))
	report("peak_rss_mb", peakRSSMB(), "")
	report("setup_s", median(setups), fmt.Sprintf("median of %.4f", setups))
	return res, nil
}

// storedPerUserByte is the growth of the chunk store per logical byte
// the clients saved, over the measured phase. A workload that collects
// garbage marks the store size after each collection, and the ratio is
// then taken from the first mark to the last, so that it compares
// collected states and does not depend on where in a cycle the run
// stopped.
func storedPerUserByte(before, after counters, all *recorder) float64 {
	stored, written := after.store.Bytes-before.store.Bytes, all.written
	if n := len(all.marks); n >= 2 {
		stored, written = all.marks[n-1][0]-all.marks[0][0], all.marks[n-1][1]-all.marks[0][1]
	}
	if written <= 0 {
		return 0
	}
	return float64(stored) / float64(written)
}
