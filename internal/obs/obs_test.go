package obs

import (
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestObsCounterConcurrent hammers one counter from many goroutines
// and checks nothing is lost across the shards. Run under -race in CI.
func TestObsCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
}

// TestObsHistogramConcurrent runs parallel Observe/Add/Snapshot and
// verifies totals once the writers drain — the registry must tolerate
// snapshots mid-write without locking writers out.
func TestObsHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_ns", "")
	c := r.Counter("test_total", "")
	g := r.Gauge("test_inflight", "")
	const workers, perWorker = 8, 5000

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for i := 0; i < 4; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, s := range r.Snapshot() {
						if s.Value < 0 {
							t.Errorf("negative snapshot value for %s", s.Name)
							return
						}
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(i%1000 + 1))
				c.Add(2)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	final := r.Snapshot()
	byName := map[string]Sample{}
	for _, s := range final {
		byName[s.Name] = s
	}
	if got := byName["test_total"].Value; got != workers*perWorker*2 {
		t.Errorf("counter: got %d want %d", got, workers*perWorker*2)
	}
	if got := byName["test_inflight"].Value; got != 0 {
		t.Errorf("gauge should settle to 0, got %d", got)
	}
	hs := byName["test_latency_ns"]
	if hs.Value != workers*perWorker {
		t.Errorf("histogram count: got %d want %d", hs.Value, workers*perWorker)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b
	}
	if int64(bucketSum) != hs.Value {
		t.Errorf("bucket counts %d disagree with observation count %d", bucketSum, hs.Value)
	}
}

// TestObsHistogramBuckets pins the bucket boundary math: each value
// must land in the smallest bucket whose bound admits it.
func TestObsHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, // negative clamps to zero
		{0, 0},
		{1, 0}, // bound of bucket 0 is 2^0 = 1
		{2, 1},
		{3, 2},
		{4, 2}, // 2 < v <= 4
		{5, 3},
		{8, 3},
		{9, 4},
		{1024, 10},
		{1025, 11},
		{int64(time.Millisecond), 20},   // 1e6 ns: 2^19 < 1e6 <= 2^20
		{int64(time.Second), 30},        // 1e9 ns: 2^29 < 1e9 <= 2^30
		{1 << 38, 38},                   // largest finite bucket
		{1<<38 + 1, NumBuckets - 1},     // first overflow value
		{math.MaxInt64, NumBuckets - 1}, // deep overflow
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		for i := 0; i < NumBuckets; i++ {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if got := h.buckets[i].Load(); got != want {
				t.Errorf("Observe(%d): bucket %d = %d, want value in bucket %d", tc.v, i, got, tc.bucket)
				break
			}
		}
	}
	// Bounds themselves: increasing, last is +Inf sentinel.
	for i := 1; i < NumBuckets-1; i++ {
		if BucketBound(i) != 2*BucketBound(i-1) {
			t.Fatalf("bounds not power-of-two at %d", i)
		}
	}
	if BucketBound(NumBuckets-1) != math.MaxInt64 {
		t.Fatalf("last bound must be the overflow sentinel")
	}
}

// TestObsSnapshotStable checks registration order does not leak into
// snapshots: samples come back sorted by (name, tags) and repeated
// snapshots of a quiet registry are identical.
func TestObsSnapshotStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "").Add(3)
	r.Counter("aaa_total", `op="put"`).Add(1)
	r.Counter("aaa_total", `op="get"`).Add(2)
	r.Gauge("mmm", "").Set(7)
	r.Histogram("lat_ns", "").Observe(100)

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1) != 5 || len(s2) != 5 {
		t.Fatalf("want 5 samples, got %d / %d", len(s1), len(s2))
	}
	wantOrder := []string{"aaa_total", "aaa_total", "lat_ns", "mmm", "zzz_total"}
	for i, s := range s1 {
		if s.Name != wantOrder[i] {
			t.Fatalf("order: got %v at %d, want %v", s.Name, i, wantOrder[i])
		}
	}
	if s1[0].Tags != `op="get"` || s1[1].Tags != `op="put"` {
		t.Fatalf("tags not sorted within a name: %q, %q", s1[0].Tags, s1[1].Tags)
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || s1[i].Tags != s2[i].Tags || s1[i].Value != s2[i].Value {
			t.Fatalf("snapshots of a quiet registry differ at %d: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	// Same (name, tags, kind) resolves to the same instrument.
	if r.Counter("zzz_total", "").Value() != 3 {
		t.Fatal("re-registration did not return the existing counter")
	}
}

// TestObsQuantile checks rank estimation against known distributions.
func TestObsQuantile(t *testing.T) {
	var h Histogram
	// 90 fast observations (bucket bound 1024), 10 slow (bound 65536).
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(60000)
	}
	var m metric
	m.h = &h
	m.kind = KindHistogram
	s := m.sample()
	if q := s.Quantile(0.5); q != 1024 {
		t.Errorf("p50: got %d want 1024", q)
	}
	if q := s.Quantile(0.99); q != 65536 {
		t.Errorf("p99: got %d want 65536", q)
	}
	if q := s.Quantile(1.0); q != 65536 {
		t.Errorf("p100: got %d want 65536", q)
	}
	if got := s.Mean(); math.Abs(got-6900) > 1 {
		t.Errorf("mean: got %v want 6900", got)
	}
	if (Sample{}).Quantile(0.5) != 0 {
		t.Error("empty sample must report 0")
	}
}

// TestObsAllocFree pins the hot-path instruments at zero allocations —
// the contract that lets instrumentation stay on by default without
// moving the remote round-trip or wire alloc pins.
func TestObsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_ns", "")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1); g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() { h.ObserveSince(start) }); n != 0 {
		t.Errorf("Histogram.ObserveSince allocates %v/op, want 0", n)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+$`)

// TestObsPromText checks the exported text parses cleanly: every line
// is a TYPE comment or a well-formed sample, TYPE precedes its
// samples exactly once, histogram buckets are cumulative and end at
// +Inf with the series count.
func TestObsPromText(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", `op="get"`).Add(5)
	r.Counter("req_total", `op="put"`).Add(7)
	r.Gauge("inflight", "").Set(2)
	h := r.Histogram("lat_ns", `op="get"`)
	h.Observe(3)
	h.Observe(900)
	h.Observe(1 << 50)

	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	typesSeen := map[string]int{}
	var lastName string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typesSeen[parts[2]]++
			lastName = parts[2]
			continue
		}
		cleaned := strings.Replace(line, `le="+Inf"`, `le="9"`, 1) // regexp keeps to integers
		if !promLine.MatchString(cleaned) {
			t.Fatalf("unparsable sample line: %q", line)
		}
		if !strings.HasPrefix(line, lastName) {
			t.Fatalf("sample %q not under its TYPE header %q", line, lastName)
		}
	}
	for name, n := range typesSeen {
		if n != 1 {
			t.Errorf("TYPE for %s emitted %d times", name, n)
		}
	}
	if len(typesSeen) != 3 {
		t.Errorf("want 3 TYPE lines, got %v", typesSeen)
	}
	// Cumulative buckets: the +Inf bucket must equal the count.
	if !strings.Contains(out, `lat_ns_bucket{op="get",le="+Inf"} 3`) {
		t.Errorf("missing cumulative +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `lat_ns_bucket{op="get",le="4"} 1`) {
		t.Errorf("missing le=4 bucket with cumulative count 1:\n%s", out)
	}
	if !strings.Contains(out, `lat_ns_count{op="get"} 3`) || !strings.Contains(out, "lat_ns_sum{") {
		t.Errorf("missing _count/_sum series:\n%s", out)
	}
}

// TestObsMergeSamples checks merged groups come back fully sorted.
func TestObsMergeSamples(t *testing.T) {
	a := []Sample{{Name: "z"}, {Name: "b", Tags: `x="2"`}}
	b := []Sample{{Name: "b", Tags: `x="1"`}, {Name: "a"}}
	SortSamples(a)
	SortSamples(b)
	got := MergeSamples(a, b)
	want := []string{"a|", `b|x="1"`, `b|x="2"`, "z|"}
	for i, s := range got {
		if s.Name+"|"+s.Tags != want[i] {
			t.Fatalf("merge order at %d: got %s|%s want %s", i, s.Name, s.Tags, want[i])
		}
	}
}
