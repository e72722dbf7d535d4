package forkbase_test

// Observability end-to-end: the OpServerStats round trip, graceful
// degradation against pre-stats peers, the wire byte counters'
// agreement across the socket, and the slow-op log.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"forkbase"
	"forkbase/internal/obs"
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

// TestObsServerStatsPreFeature simulates a peer that predates the
// stats op: the call must fail locally with ErrUnsupported, without
// touching the wire.
func TestObsServerStatsPreFeature(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	rs.DropServerStatsFeatureForTest()
	before := wireBytes(rs, "out")
	if _, err := rs.ServerStats(ctx); !errors.Is(err, forkbase.ErrUnsupported) {
		t.Fatalf("ServerStats against a pre-stats peer: err = %v, want ErrUnsupported", err)
	}
	if after := wireBytes(rs, "out"); after != before {
		t.Fatalf("ServerStats moved %d bytes against a pre-stats peer; must fail locally", after-before)
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
