package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// span is one timed interval. Root spans (Parent == -1) are client
// operations recorded by the benchmark around the Store or application
// call; child spans are recorded at public seams below it. Spans stay
// in memory until the pass ends.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`    // class of the root operation
	Layer  string `json:"layer"` // module the span is charged to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the trace's memory; spans beyond it are counted, not
// kept.
const maxSpans = 4 << 20

// tracer records spans for a single closed-loop client, so at any
// moment at most one root is open and every child belongs to it.
// Children may arrive from server goroutines, hence the mutex.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	on      bool  // children are recorded only while a traced pass runs
	root    int32 // open root span, -1 when none
	spans   []span
	dropped int
	errs    map[string]int // layer -> calls that returned an error
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), root: -1, errs: make(map[string]int)}
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) add(s span) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) beginRoot(op, name string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := t.add(span{Parent: -1, Op: op, Layer: "client", Name: name, Start: int64(time.Since(t.epoch))})
	t.root = id
	return id
}

func (t *tracer) endRoot(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.root = -1
	t.mu.Unlock()
}

var noSpan = func() {}

// child opens a span under the open root; with no root open (set-up
// traffic, background work between operations) nothing is recorded.
func (t *tracer) child(layer, name string) func() {
	t.mu.Lock()
	if !t.on || t.root < 0 {
		t.mu.Unlock()
		return noSpan
	}
	id := t.add(span{Parent: t.root, Op: t.spans[t.root].Op, Layer: layer, Name: name, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	if id < 0 {
		return noSpan
	}
	return func() {
		now := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

func (t *tracer) fail(layer string) {
	t.mu.Lock()
	t.errs[layer]++
	t.mu.Unlock()
}

// spanStore is the span-recording chunk-store decorator handed to
// forkbase.NewDBOn. It sits where Open() puts the MemStore, so the DB
// above it — and every server fast path that type-asserts *DB — runs
// the code it always runs.
type spanStore struct {
	inner store.Store
	tr    *tracer
}

func (s spanStore) Put(c *chunk.Chunk) (bool, error) {
	end := s.tr.child("store", "Put")
	dup, err := s.inner.Put(c)
	end()
	if err != nil {
		s.tr.fail("store")
	}
	return dup, err
}

func (s spanStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	end := s.tr.child("store", "Get")
	c, err := s.inner.Get(id)
	end()
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		s.tr.fail("store")
	}
	return c, err
}

func (s spanStore) Has(id chunk.ID) bool {
	end := s.tr.child("store", "Has")
	ok := s.inner.Has(id)
	end()
	return ok
}

func (s spanStore) Stats() store.Stats { return s.inner.Stats() }
func (s spanStore) Close() error       { return s.inner.Close() }

// layerRow is one line of the layer table.
type layerRow struct {
	layer  string
	calls  int
	busyNs int64 // sum of span durations
	selfNs int64 // busy minus the part covered by child spans
	errors int
}

// layerTable folds the spans into per-layer rows. The "client" row is
// the roots themselves: its self time is what no child span explains.
func (t *tracer) layerTable() (rows []layerRow, rootNs int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	by := make(map[string]*layerRow)
	row := func(layer string) *layerRow {
		r := by[layer]
		if r == nil {
			r = &layerRow{layer: layer, errors: t.errs[layer]}
			by[layer] = r
		}
		return r
	}
	for _, s := range t.spans {
		if s.End == 0 {
			continue // still open when the pass ended
		}
		d := s.End - s.Start
		r := row(s.Layer)
		r.calls++
		r.busyNs += d
		r.selfNs += d - covered(t.spans, children[s.ID], s.Start, s.End)
		if s.Parent < 0 {
			rootNs += d
		}
	}
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].busyNs > rows[j].busyNs })
	return rows, rootNs
}

// covered returns how much of [lo, hi] the given child spans cover,
// counting overlapping children once.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if e == 0 || e > hi {
			e = hi
		}
		if s < lo {
			s = lo
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// rootP50 returns the median root-span duration in ns, per class.
func (t *tracer) rootP50() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	by := make(map[string][]int64)
	for _, s := range t.spans {
		if s.Parent < 0 && s.End != 0 {
			by[s.Op] = append(by[s.Op], s.End-s.Start)
			by["all"] = append(by["all"], s.End-s.Start)
		}
	}
	out := make(map[string]float64)
	for op, v := range by {
		out[op] = summarize(v).p50 * 1e3
	}
	return out
}

// printLayerTable writes the per-layer table of a traced pass.
// allocs maps a layer to its allocations per call where the layer
// replay measured one.
func printLayerTable(w io.Writer, name string, rows []layerRow, rootNs int64, allocs map[string]float64) {
	fmt.Fprintf(w, "layer table %s (one client, traced pass)\n", name)
	fmt.Fprintf(w, "  %-12s %10s %12s %12s %8s %12s %7s\n", "layer", "calls", "busy_ms", "self_ms", "share", "allocs/call", "errors")
	for _, r := range rows {
		share := 0.0
		if rootNs > 0 {
			share = float64(r.selfNs) / float64(rootNs)
		}
		a := "-"
		if v, ok := allocs[r.layer]; ok {
			a = fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(w, "  %-12s %10d %12.2f %12.2f %7.1f%% %12s %7d\n",
			r.layer, r.calls, float64(r.busyNs)/1e6, float64(r.selfNs)/1e6, 100*share, a, r.errors)
	}
}

// writeSpans writes the trace file for one workload.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(t.spans)
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// spanAPI records one child span per client-API call. It wraps the
// forkbase.Store an application or client goroutine calls through —
// never a server's backend, whose fast paths need the concrete *DB.
type spanAPI struct {
	forkbase.Store
	tr    *tracer
	layer string
}

func (s spanAPI) Get(ctx context.Context, key string, opts ...forkbase.Option) (*forkbase.FObject, error) {
	defer s.tr.child(s.layer, "Get")()
	return s.Store.Get(ctx, key, opts...)
}

func (s spanAPI) Put(ctx context.Context, key string, v forkbase.Value, opts ...forkbase.Option) (forkbase.UID, error) {
	defer s.tr.child(s.layer, "Put")()
	return s.Store.Put(ctx, key, v, opts...)
}

func (s spanAPI) Apply(ctx context.Context, b *forkbase.Batch, opts ...forkbase.Option) ([]forkbase.UID, error) {
	defer s.tr.child(s.layer, "Apply")()
	return s.Store.Apply(ctx, b, opts...)
}

func (s spanAPI) Value(ctx context.Context, key string, o *forkbase.FObject, opts ...forkbase.Option) (forkbase.Value, error) {
	defer s.tr.child(s.layer, "Value")()
	return s.Store.Value(ctx, key, o, opts...)
}

func (s spanAPI) Track(ctx context.Context, key string, from, to int, opts ...forkbase.Option) ([]*forkbase.FObject, error) {
	defer s.tr.child(s.layer, "Track")()
	return s.Store.Track(ctx, key, from, to, opts...)
}
