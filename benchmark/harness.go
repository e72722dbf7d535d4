package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"forkbase"
)

// class is the kind of client operation a latency sample belongs to.
// Every workload maps its operations onto the same three classes so
// one metric name means the same thing across workloads (README,
// "Classes").
type class int

const (
	classRead class = iota
	classWrite
	classScan
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan"}

// scenario is one named workload: a traffic mix. The harness owns timing, the
// workload owns inputs, the system under test and the model its
// outputs are checked against.
type scenario interface {
	// setup does everything that precedes the warm-up: generates the
	// op streams from env.seed, opens the store under env.dir, preloads
	// it, starts the server and dials the clients.
	setup(ctx context.Context, env *env) error
	// clients is the number of closed-loop client goroutines (1 or 2).
	clients() int
	// step runs client c's next operation (or round of operations),
	// timing each through rec and checking its output against the
	// model.
	step(ctx context.Context, c int, rec *recorder)
	// verify runs the end-of-run model checks through rec.check.
	verify(ctx context.Context, rec *recorder)
	// counters samples the byte and registry counters the harness
	// turns into ratios and per-layer deltas.
	counters() counters
	// payload is one typical user value of this workload, replayed
	// against single layers by the traced run.
	payload() []byte
	// close stops the server and clients and closes the store.
	close() error
}

// env is what a workload's setup receives.
type env struct {
	seed  int64
	dir   string  // scratch directory for file-backed stores; removed by the harness
	smoke bool    // tiny sizes for the smoke test
	tr    *tracer // non-nil on a traced pass
}

// counters is a point-in-time sample of everything measured from
// outside the program: public stats and metric snapshots only.
type counters struct {
	store  forkbase.StoreStats     // DB.Stats(); Bytes is the live distinct chunk bytes
	server []forkbase.MetricSample // Server.MetricsSnapshot (the DB's included); nil when embedded
	client []forkbase.MetricSample // every RemoteStore's snapshot, concatenated; nil when embedded
	db     []forkbase.MetricSample // DB.MetricsSnapshot
	gc     forkbase.GCStats        // summed over the collections the workload ran
}

// recorder collects one client's samples. Each client goroutine owns
// its recorder, so nothing here is shared while the clock runs.
type recorder struct {
	tr        *tracer
	measuring bool

	lat       [numClasses][]int64 // ns per op, measured phase only
	ops       int64               // timed operations, measured phase only
	checks    int64               // untimed model checks, any phase
	failed    int64               // of either
	userBytes int64               // logical bytes read and saved
	written   int64               // logical bytes saved (subset of userBytes)

	// marks are (store bytes, logical bytes written) pairs a workload
	// drops after each of its own GC cycles, so the stored-bytes ratio
	// can be taken between two collections instead of mid-garbage.
	marks [][2]int64

	// sliceOps counts the measured phase's operations by the slice of
	// it they started in; phase and sliceLen are set by drive.
	phase    time.Time
	sliceLen time.Duration
	sliceOps []int64

	firstErr string
}

// opTimer is one in-flight client operation.
type opTimer struct {
	cl    class
	start time.Time
	dur   time.Duration // set by lap; zero until then
	span  int32         // root span index, -1 when tracing is off
}

// begin starts the clock on one client operation and, on a traced
// pass, opens its root span.
func (r *recorder) begin(cl class, name string) opTimer {
	t := opTimer{cl: cl, span: -1}
	if r.tr != nil {
		t.span = r.tr.beginRoot(classNames[cl], name)
	}
	t.start = time.Now()
	return t
}

// lap stops the clock; model checks that follow are not timed.
func (r *recorder) lap(t *opTimer) {
	t.dur = time.Since(t.start)
	if t.span >= 0 {
		r.tr.endRoot(t.span)
	}
}

// end files the operation: ok=false counts it as failed (it errored or
// its output disagreed with the model); user and written are the
// logical bytes it read+saved and saved.
func (r *recorder) end(t opTimer, ok bool, user, written int64) {
	if t.dur == 0 {
		r.lap(&t)
	}
	if !r.measuring {
		return
	}
	r.ops++
	if !ok {
		r.failed++
	}
	r.userBytes += user
	r.written += written
	r.lat[t.cl] = append(r.lat[t.cl], int64(t.dur))
	if len(r.sliceOps) > 0 {
		if i := int(t.start.Sub(r.phase) / r.sliceLen); i < len(r.sliceOps) {
			r.sliceOps[i]++
		}
	}
}

// child opens a child span under the current root on a traced pass and
// returns the function that closes it; untraced it costs one nil check.
func (r *recorder) child(layer, name string) func() {
	if r.tr == nil {
		return func() {}
	}
	return r.tr.child(layer, name)
}

// check files one untimed model check: end-of-run verification, and
// the housekeeping calls between a workload's timed operations.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failed++
		r.fail(format, args...)
	}
}

// fail remembers the first failure's description for the report.
func (r *recorder) fail(format string, args ...any) {
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// mark records a (store bytes, written bytes) pair; see marks.
func (r *recorder) mark(storeBytes int64) {
	if r.measuring {
		r.marks = append(r.marks, [2]int64{storeBytes, r.written})
	}
}

// slices is how many equal parts the measured phase is cut into.
const slices = 10

// drive runs every client of w in a closed loop for d and returns each
// client's own wall time. Clients check the deadline between steps, so
// a long step overruns it; rates are taken against the time actually
// spent.
func drive(ctx context.Context, w scenario, recs []*recorder, d time.Duration) []time.Duration {
	walls := make([]time.Duration, len(recs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range recs {
		recs[c].phase, recs[c].sliceLen, recs[c].sliceOps = start, d/slices, make([]int64, slices)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			deadline := start.Add(d)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				w.step(ctx, c, recs[c])
			}
			walls[c] = time.Since(start)
		}(c)
	}
	wg.Wait()
	return walls
}

// latStats summarises one class's samples.
type latStats struct {
	n       int
	p50     float64 // µs
	p99     float64 // µs
	top     float64 // µs: the highest percentile with >= 10 samples beyond it
	topName string  // e.g. "p99.9"
}

func summarize(samples []int64) latStats {
	s := latStats{n: len(samples)}
	if s.n == 0 {
		return s
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(s.n))) - 1
		if i < 0 {
			i = 0
		}
		return float64(samples[i]) / 1e3
	}
	s.p50 = at(0.50)
	s.p99 = at(0.99)
	s.top, s.topName = s.p50, "p50"
	for _, p := range []struct {
		q    float64
		name string
	}{{0.90, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}} {
		if float64(s.n)*(1-p.q) >= 10 {
			s.top, s.topName = at(p.q), p.name
		}
	}
	return s
}

// resetPeakRSS restarts the kernel's high-water mark at the current
// resident set, so a process that runs several workloads reports each
// one's own peak. Best effort: where the file is absent or read-only,
// the peak stays the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histDelta returns the count and sum a histogram gained between two
// snapshots, summed over every tag set containing tag ("" for all).
// For a counter the count is its increase.
func histDelta(before, after []forkbase.MetricSample, name, tag string) (count, sum int64) {
	for _, s := range after {
		if s.Name == name && strings.Contains(s.Tags, tag) {
			count += s.Value
			sum += s.Sum
		}
	}
	for _, s := range before {
		if s.Name == name && strings.Contains(s.Tags, tag) {
			count -= s.Value
			sum -= s.Sum
		}
	}
	return count, sum
}
