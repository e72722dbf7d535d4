// Package obs is ForkBase's observability spine: counters, gauges and
// latency histograms cheap enough to leave on in the request hot path,
// plus a Registry that snapshots everything into a stable, sorted
// sample list for export (wire op, Prometheus text, CLI rendering).
//
// The package is stdlib-only and allocation-free where it matters:
// Counter.Add, Gauge.Add/Set and Histogram.Observe perform only atomic
// operations — no locks, no allocations, no time formatting — which is
// what lets the server instrument every request without adding to the
// allocations per round trip that TestRemoteRoundTripAllocs pins.
// Snapshotting is the slow path and may allocate freely.
//
// Metrics are identified by a name plus an optional pre-rendered tag
// string (`op="get"` form, no braces). Name and tags are kept separate
// so the Prometheus writer can splice histogram suffixes (_bucket,
// _sum, _count) and the le label into the right positions.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// --- counter ----------------------------------------------------------

// counterShards is the number of stripes a Counter spreads its value
// across. Must be a power of two.
const counterShards = 16

// counterShard pads each stripe to its own cache line so concurrent
// writers on different shards never false-share.
type counterShard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing (by convention) sharded
// counter. Add is lock-free, allocation-free and safe for any number
// of concurrent writers; Value folds the shards and may be slightly
// stale relative to in-flight Adds, which is fine for telemetry.
type Counter struct {
	shards [counterShards]counterShard
}

// shardIndex picks a stripe from the address of a stack variable:
// goroutine stacks live at least 2 KiB apart, so shifting off the low
// bits spreads concurrent goroutines across shards. The runtime
// exports no goroutine or P identity, and this costs nothing — the
// uintptr conversion is one-way, so the pointer never escapes.
func shardIndex() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x))>>11) & (counterShards - 1)
}

// Add increments the counter by n. Zero allocations.
func (c *Counter) Add(n int64) { c.shards[shardIndex()].v.Add(n) }

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the folded total.
func (c *Counter) Value() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// --- gauge ------------------------------------------------------------

// Gauge is an instantaneous value (in-flight requests, queue depth).
// Unsharded: gauges move both directions, so a single atomic keeps
// Value exact, and gauge updates are rare enough not to contend.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrement). Zero allocations.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value. Zero allocations.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// --- histogram --------------------------------------------------------

// NumBuckets is the fixed bucket count of every Histogram. Bucket i
// (except the last) holds observations v with BucketBound(i-1) < v <=
// BucketBound(i); the last bucket is the +Inf overflow. With
// power-of-two bounds that spans 1ns..2^38ns (~4.6 min) when observing
// durations in nanoseconds — wide enough for any request latency while
// keeping the whole histogram in five cache lines.
const NumBuckets = 40

// Histogram is a fixed-bucket histogram with power-of-two bounds.
// Observe is lock-free and allocation-free: one atomic add into the
// bucket plus one into the running sum.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64
}

// bucketIndex maps a value to its bucket: the smallest i with
// v <= BucketBound(i). bits.Len64(v-1) computes ceil(log2(v)) without
// a loop or float math.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Observe records one value (durations in nanoseconds by convention;
// any non-negative magnitude works — batch sizes, byte counts).
// Negative values clamp to zero. Zero allocations.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(int64(time.Since(start))) }

// BucketBound returns the inclusive upper bound of bucket i: 2^i for
// all but the last bucket, which is unbounded (math.MaxInt64).
func BucketBound(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// --- samples ----------------------------------------------------------

// Kind tags what a Sample's fields mean.
type Kind uint8

const (
	// KindCounter is a monotonically increasing total in Value.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value in Value.
	KindGauge
	// KindHistogram carries the observation count in Value, the value
	// sum in Sum and per-bucket (non-cumulative) counts in Buckets.
	KindHistogram
)

// Sample is one metric's state at snapshot time — a plain value
// struct that crosses the wire and feeds every renderer.
type Sample struct {
	Name    string
	Tags    string // `op="get"` form, no braces; "" when untagged
	Kind    Kind
	Value   int64    // counter/gauge value; histogram observation count
	Sum     int64    // histogram only: sum of observed values
	Buckets []uint64 // histogram only: NumBuckets per-bucket counts
}

// Quantile estimates the q-quantile (q in [0,1]) of a histogram
// sample as the upper bound of the bucket containing that rank —
// an overestimate by at most 2x, which is the honest resolution of
// power-of-two buckets. Returns 0 for empty or non-histogram samples;
// math.MaxInt64 means the rank fell in the overflow bucket.
func (s Sample) Quantile(q float64) int64 {
	if s.Kind != KindHistogram || s.Value <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Value)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}

// Mean returns the average observed value of a histogram sample.
func (s Sample) Mean() float64 {
	if s.Kind != KindHistogram || s.Value <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Value)
}

// SortSamples orders samples by name, then tags — the stable order
// every Snapshot returns and every renderer can rely on.
func SortSamples(s []Sample) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].Tags < s[j].Tags
	})
}

// MergeSamples folds several snapshot groups (e.g. a server's registry
// plus its backend DB's) into one sorted list.
func MergeSamples(groups ...[]Sample) []Sample {
	var n int
	for _, g := range groups {
		n += len(g)
	}
	out := make([]Sample, 0, n)
	for _, g := range groups {
		out = append(out, g...)
	}
	SortSamples(out)
	return out
}

// --- registry ---------------------------------------------------------

// metric is one registered instrument. Exactly one of c/g/h/fn is set.
type metric struct {
	name, tags string
	kind       Kind
	c          *Counter
	g          *Gauge
	h          *Histogram
	fn         func() int64 // sampled counter/gauge (queue depth, store stats)
}

func (m *metric) sample() Sample {
	s := Sample{Name: m.name, Tags: m.tags, Kind: m.kind}
	switch {
	case m.c != nil:
		s.Value = m.c.Value()
	case m.g != nil:
		s.Value = m.g.Value()
	case m.h != nil:
		s.Buckets = make([]uint64, NumBuckets)
		var count uint64
		for i := range m.h.buckets {
			b := m.h.buckets[i].Load()
			s.Buckets[i] = b
			count += b
		}
		s.Value = int64(count)
		s.Sum = m.h.sum.Load()
	case m.fn != nil:
		s.Value = m.fn()
	}
	return s
}

// Registry owns a set of metrics and snapshots them. Registration
// takes a lock and may allocate — do it at construction time, never
// per request; instruments are meant to be resolved once and held.
// Registering the same (name, tags, kind) again returns the existing
// instrument, so independent components can share a metric safely.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
	list  []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// lookup finds or adds the metric for (name, tags). A kind collision
// on the same key is a programming error worth failing loudly on.
func (r *Registry) lookup(name, tags string, kind Kind) (*metric, bool) {
	key := name + "\x00" + tags
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered with a different kind")
		}
		return m, true
	}
	m := &metric{name: name, tags: tags, kind: kind}
	r.byKey[key] = m
	r.list = append(r.list, m)
	return m, false
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, tags string) *Counter {
	m, existed := r.lookup(name, tags, KindCounter)
	if !existed {
		m.c = &Counter{}
	}
	if m.c == nil {
		panic("obs: metric " + name + " already registered as a sampled func")
	}
	return m.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, tags string) *Gauge {
	m, existed := r.lookup(name, tags, KindGauge)
	if !existed {
		m.g = &Gauge{}
	}
	if m.g == nil {
		panic("obs: metric " + name + " already registered as a sampled func")
	}
	return m.g
}

// Histogram registers (or finds) a histogram.
func (r *Registry) Histogram(name, tags string) *Histogram {
	m, _ := r.lookup(name, tags, KindHistogram)
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// CounterFunc registers a counter whose value is sampled from fn at
// snapshot time — for totals an existing subsystem already tracks
// (store cache hits), re-homed here instead of duplicated.
func (r *Registry) CounterFunc(name, tags string, fn func() int64) {
	m, _ := r.lookup(name, tags, KindCounter)
	m.fn = fn
}

// GaugeFunc registers a gauge sampled from fn at snapshot time (e.g.
// worker-pool queue depth from len(chan)).
func (r *Registry) GaugeFunc(name, tags string, fn func() int64) {
	m, _ := r.lookup(name, tags, KindGauge)
	m.fn = fn
}

// Snapshot reads every metric and returns samples sorted by name then
// tags. Counters and histograms are read with atomic loads while
// writers proceed: each individual value is consistent, the set as a
// whole is not a point-in-time cut — the usual monitoring contract.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	ms := make([]*metric, len(r.list))
	copy(ms, r.list)
	r.mu.Unlock()
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.sample())
	}
	SortSamples(out)
	return out
}
