package forkbase_test

// Observability end-to-end: the OpServerStats round trip on every kind
// of backend, Stats read from it, the wire byte counters' agreement
// across the socket, and the slow-op log.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase"
	"forkbase/internal/obs"
	"forkbase/internal/wire"
)

// wireBytes reads one direction ("in" or "out") of a client's wire byte
// counter — every byte on its sockets, framing included — from its
// metrics registry.
func wireBytes(rs *forkbase.RemoteStore, dir string) int64 {
	s, _ := sampleValue(rs.MetricsSnapshot(), "forkbase_client_wire_bytes_total", `dir="`+dir+`"`)
	return s.Value
}

// sampleValue finds one sample by name and tags; ok reports presence.
func sampleValue(samples []forkbase.MetricSample, name, tags string) (forkbase.MetricSample, bool) {
	for _, s := range samples {
		if s.Name == name && s.Tags == tags {
			return s, true
		}
	}
	return forkbase.MetricSample{}, false
}

// TestObsServerStatsRoundTrip drives real traffic at a live server and
// reads the merged snapshot back over the wire: per-op counters and
// latency histograms from the server registry, store metrics from the
// embedded DB's.
func TestObsServerStatsRoundTrip(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	const puts = 5
	for i := 0; i < puts; i++ {
		if _, err := rs.Put(ctx, "k", forkbase.String(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get(ctx, "no such key"); err == nil {
		t.Fatal("expected an error for a missing key")
	}

	samples, err := rs.ServerStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := sampleValue(samples, "forkbase_server_requests_total", `op="put"`); !ok || s.Value < puts {
		t.Fatalf("put request counter = %+v (present=%v), want >= %d", s, ok, puts)
	}
	if s, ok := sampleValue(samples, "forkbase_server_requests_total", `op="get"`); !ok || s.Value < 2 {
		t.Fatalf("get request counter = %+v (present=%v), want >= 2", s, ok)
	}
	if s, ok := sampleValue(samples, "forkbase_server_request_errors_total", `op="get"`); !ok || s.Value < 1 {
		t.Fatalf("get error counter = %+v (present=%v), want >= 1", s, ok)
	}
	if s, ok := sampleValue(samples, "forkbase_server_errors_by_code_total", `code="key_not_found"`); !ok || s.Value < 1 {
		t.Fatalf("key_not_found code counter = %+v (present=%v), want >= 1", s, ok)
	}
	lat, ok := sampleValue(samples, "forkbase_server_latency_ns", `op="put"`)
	if !ok || lat.Kind != obs.KindHistogram {
		t.Fatalf("put latency histogram missing or wrong kind: %+v (present=%v)", lat, ok)
	}
	if lat.Value < puts || lat.Sum <= 0 || lat.Quantile(0.5) <= 0 {
		t.Fatalf("put latency histogram not populated: count=%d sum=%d p50=%d", lat.Value, lat.Sum, lat.Quantile(0.5))
	}
	// The embedded DB's engine/store metrics ride the same snapshot.
	if s, ok := sampleValue(samples, "forkbase_store_puts_total", ""); !ok || s.Value <= 0 {
		t.Fatalf("store puts counter = %+v (present=%v), want > 0", s, ok)
	}
	// Wire byte counters move in both directions.
	for _, dir := range []string{`dir="in"`, `dir="out"`} {
		if s, ok := sampleValue(samples, "forkbase_server_wire_bytes_total", dir); !ok || s.Value <= 0 {
			t.Fatalf("server wire bytes %s = %+v (present=%v), want > 0", dir, s, ok)
		}
	}
	// Snapshots are sorted by name then tags — stable scrape output.
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Tags > b.Tags) {
			t.Fatalf("snapshot out of order at %d: %s/%s after %s/%s", i, b.Name, b.Tags, a.Name, a.Tags)
		}
	}
}

// TestObsServerStatsEveryBackend: every server answers ServerStats,
// whatever it serves — an embedded DB, a cluster, or a Store that
// wraps a DB and is reached through its methods. The server's own
// per-op series are in each snapshot; the DB's store series only where
// the server holds the DB itself.
func TestObsServerStatsEveryBackend(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		open        func(t *testing.T) forkbase.Store
		storeSeries bool
	}{
		{"db", func(*testing.T) forkbase.Store { return forkbase.Open() }, true},
		{"cluster", func(t *testing.T) forkbase.Store {
			cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			return cc
		}, false},
		{"wrapper", func(*testing.T) forkbase.Store { return &overrideStore{DB: forkbase.Open()} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, _ := startServer(t, tc.open(t), forkbase.ServerOptions{})
			rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if _, err := rs.Put(ctx, "k", forkbase.String("v")); err != nil {
				t.Fatal(err)
			}
			samples, err := rs.ServerStats(ctx)
			if err != nil {
				t.Fatalf("ServerStats: %v", err)
			}
			if s, ok := sampleValue(samples, "forkbase_server_requests_total", `op="put"`); !ok || s.Value != 1 {
				t.Fatalf("put request counter = %+v (present=%v), want 1", s, ok)
			}
			if _, ok := sampleValue(samples, "forkbase_store_puts_total", ""); ok != tc.storeSeries {
				t.Fatalf("store puts series present = %v, want %v", ok, tc.storeSeries)
			}
		})
	}
}

// TestRemoteStatsReadsStoreSeries: RemoteStore.Stats answers, field by
// field, what the served DB's Stats does, through the store series of
// the server's snapshot. A server without a DB of its own has none of
// them, and Stats fails with ErrUnsupported.
func TestRemoteStatsReadsStoreSeries(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open(forkbase.Options{CacheBytes: 1 << 20})
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	blob := forkbase.NewBlob(bytes.Repeat([]byte("stats series "), 8<<10))
	for _, key := range []string{"a", "b"} { // b's chunks are all dups
		if _, err := rs.Put(ctx, key, blob); err != nil {
			t.Fatal(err)
		}
	}
	o, err := rs.Get(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Value(ctx, "a", o); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Stats()
	if want.Dups == 0 || want.CacheHits+want.CacheMisses == 0 {
		t.Fatalf("the traffic left fields at zero: %+v", want)
	}
	if got != want {
		t.Fatalf("RemoteStore.Stats = %+v\nserved DB's Stats = %+v", got, want)
	}

	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ = startServer(t, cc, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Stats(ctx); !errors.Is(err, forkbase.ErrUnsupported) {
		t.Fatalf("Stats against a cluster-served backend: err = %v, want ErrUnsupported", err)
	}
}

// TestObsWireBytesAgree cross-checks the byte accounting end to end:
// every frame either end writes passes through one counted chokepoint,
// so the client's sent bytes must equal the server's received bytes and
// vice versa once the connection is idle.
func TestObsWireBytesAgree(t *testing.T) {
	ctx := context.Background()
	addr, srv := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	for i := 0; i < 8; i++ {
		if _, err := rs.Put(ctx, "k", forkbase.String(strings.Repeat("x", 100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Get(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	cs := rs.MetricsSnapshot()
	if s, ok := sampleValue(cs, "forkbase_client_wire_bytes_total", `dir="out"`); !ok || s.Value <= 0 {
		t.Fatalf("client out counter = %+v (present=%v), want positive", s, ok)
	}
	if s, ok := sampleValue(cs, "forkbase_client_wire_bytes_total", `dir="in"`); !ok || s.Value <= 0 {
		t.Fatalf("client in counter = %+v (present=%v), want positive", s, ok)
	}
	if s, ok := sampleValue(cs, "forkbase_client_requests_total", `op="put"`); !ok || s.Value < 8 {
		t.Fatalf("client put counter = %+v (present=%v), want >= 8", s, ok)
	}
	if s, ok := sampleValue(cs, "forkbase_client_latency_ns", `op="put"`); !ok || s.Kind != obs.KindHistogram || s.Value < 8 {
		t.Fatalf("client put latency = %+v (present=%v), want histogram with >= 8 observations", s, ok)
	}

	// Both ends count at their socket chokepoints, so with all
	// responses received the totals must meet exactly. The client's
	// flusher increments its counter just after the write syscall
	// returns, so allow a brief settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		sent, recv := wireBytes(rs, "out"), wireBytes(rs, "in")
		ss := srv.MetricsSnapshot()
		in, _ := sampleValue(ss, "forkbase_server_wire_bytes_total", `dir="in"`)
		out, _ := sampleValue(ss, "forkbase_server_wire_bytes_total", `dir="out"`)
		if sent == in.Value && recv == out.Value {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("byte accounting disagrees: client sent=%d server in=%d; client recv=%d server out=%d",
				sent, in.Value, recv, out.Value)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObsSlowOpLog sets an absurdly low threshold so every op is slow,
// and checks the log line carries the op name, duration and status.
func TestObsSlowOpLog(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var lines []string
	opts := forkbase.ServerOptions{
		SlowOpThreshold: time.Nanosecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	addr, _ := startServer(t, forkbase.Open(), opts)
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	if _, err := rs.Put(ctx, "k", forkbase.String("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Get(ctx, "missing"); err == nil {
		t.Fatal("expected an error for a missing key")
	}

	mu.Lock()
	defer mu.Unlock()
	var sawOK, sawErr bool
	for _, l := range lines {
		if strings.Contains(l, "slow op put") && strings.Contains(l, "ok") {
			sawOK = true
		}
		if strings.Contains(l, "slow op get") && strings.Contains(l, "error=key_not_found") {
			sawErr = true
		}
	}
	if !sawOK || !sawErr {
		t.Fatalf("slow-op log missing expected lines (ok=%v err=%v): %q", sawOK, sawErr, lines)
	}
}

// TestObsInlinePutCountedOnce: a lone Put, answered on the read loop,
// is counted once and leaves one latency sample — neither lost nor
// doubled beside the worker path's accounting.
func TestObsInlinePutCountedOnce(t *testing.T) {
	ctx := context.Background()
	addr, srv := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	const puts = 5
	for i := 0; i < puts; i++ {
		if _, err := rs.Put(ctx, fmt.Sprintf("k%d", i), forkbase.String("v")); err != nil {
			t.Fatal(err)
		}
	}
	samples := srv.MetricsSnapshot()
	if s, _ := sampleValue(samples, "forkbase_server_requests_total", `op="put"`); s.Value != puts {
		t.Fatalf("put request counter = %d, want %d", s.Value, puts)
	}
	if lat, _ := sampleValue(samples, "forkbase_server_latency_ns", `op="put"`); lat.Value != puts {
		t.Fatalf("put latency histogram holds %d samples, want %d", lat.Value, puts)
	}
}

// TestMetricSeriesGolden pins every series a Server over an embedded
// DB and a RemoteStore register: name, kind and labels, and how many
// series share them. A wire op or error-code label is written op=* or
// code=* (TestMetricLabelsGolden pins those values). Dashboards,
// forkcli stats -server and the benchmark's layer table read these
// names.
func TestMetricSeriesGolden(t *testing.T) {
	addr, srv := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	wild := map[string]string{}
	for op := wire.OpHello; op < wire.OpMax; op++ {
		wild[`op="`+wire.OpName(op)+`"`] = "op=*"
	}
	for code := uint8(0); code < wire.NumErrorCodes; code++ {
		wild[`code="`+wire.CodeName(code)+`"`] = "code=*"
	}
	kinds := map[obs.Kind]string{obs.KindCounter: "counter", obs.KindGauge: "gauge", obs.KindHistogram: "histogram"}
	series := func(samples []forkbase.MetricSample) []string {
		n := map[string]int{}
		for _, s := range samples {
			tags := s.Tags
			if w, ok := wild[tags]; ok {
				tags = w
			}
			n[fmt.Sprintf("%s %s{%s}", kinds[s.Kind], s.Name, tags)]++
		}
		var out []string
		for k, c := range n {
			out = append(out, fmt.Sprintf("%s x%d", k, c))
		}
		sort.Strings(out)
		return out
	}
	wantServer := []string{
		"counter forkbase_server_chunksync_bytes_total{op=\"have\"} x1",
		"counter forkbase_server_chunksync_bytes_total{op=\"send\"} x1",
		"counter forkbase_server_chunksync_bytes_total{op=\"stream\"} x1",
		"counter forkbase_server_errors_by_code_total{code=*} x19",
		"counter forkbase_server_request_errors_total{op=*} x23",
		"counter forkbase_server_requests_total{op=*} x23",
		"counter forkbase_server_wire_bytes_total{dir=\"in\"} x1",
		"counter forkbase_server_wire_bytes_total{dir=\"out\"} x1",
		"counter forkbase_store_cache_evictions_total{} x1",
		"counter forkbase_store_cache_hits_total{} x1",
		"counter forkbase_store_cache_misses_total{} x1",
		"counter forkbase_store_dup_bytes_total{} x1",
		"counter forkbase_store_dup_chunks_total{} x1",
		"counter forkbase_store_gets_total{} x1",
		"counter forkbase_store_puts_total{} x1",
		"counter forkbase_store_read_bytes_total{} x1",
		"gauge forkbase_meta_wal_bytes{} x1",
		"gauge forkbase_server_inflight_requests{} x1",
		"gauge forkbase_server_queue_depth{} x1",
		"gauge forkbase_store_bytes{} x1",
		"gauge forkbase_store_cache_bytes{} x1",
		"gauge forkbase_store_chunks{} x1",
		"histogram forkbase_chunklog_fsync_ns{} x1",
		"histogram forkbase_gc_pause_ns{} x1",
		"histogram forkbase_journal_fsync_ns{} x1",
		"histogram forkbase_server_latency_ns{op=*} x23",
	}
	wantClient := []string{
		"counter forkbase_client_request_errors_total{op=*} x23",
		"counter forkbase_client_requests_total{op=*} x23",
		"counter forkbase_client_wire_bytes_total{dir=\"in\"} x1",
		"counter forkbase_client_wire_bytes_total{dir=\"out\"} x1",
		"histogram forkbase_client_latency_ns{op=*} x23",
	}
	for _, c := range []struct {
		side      string
		got, want []string
	}{
		{"server", series(srv.MetricsSnapshot()), wantServer},
		{"client", series(rs.MetricsSnapshot()), wantClient},
	} {
		if strings.Join(c.got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s series changed:\n got %q\nwant %q", c.side, c.got, c.want)
		}
	}
}
