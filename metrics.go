package forkbase

// Wire observability: every request the server dispatches, and every
// call a RemoteStore makes, is counted, timed and classified through
// internal/obs instruments that are resolved once at construction and
// indexed by op code — the hot path does array loads and atomic adds,
// nothing else. The snapshot surface (OpServerStats, forkserved
// -debug-addr) merges the server's registry with its backend DB's, so
// one scrape sees the wire layer and the engine together.

import (
	"reflect"
	"strings"
	"time"

	"forkbase/internal/obs"
	"forkbase/internal/wire"
)

// MetricSample is one metric's state in an observability snapshot.
// Alias of the internal obs.Sample so CLI tooling and embedding
// applications can consume snapshots without reaching into internal
// packages.
type MetricSample = obs.Sample

// Indexes into serverMetrics.chunksync.
const (
	csHave = iota
	csSend
	csStream
	csOps
)

// opMetrics is the per-op instrument table both ends of the wire keep:
// arrays sized by wire.OpMax, so a call or a dispatch indexes by op
// code without a map lookup or allocation, and the wire byte counters.
// Every series is prefixed by the side that keeps it (forkbase_server_
// or forkbase_client_).
type opMetrics struct {
	reqs [wire.OpMax]*obs.Counter
	errs [wire.OpMax]*obs.Counter
	lat  [wire.OpMax]*obs.Histogram

	// bytesIn and bytesOut count every byte on the side's sockets,
	// framing included. Outbound is counted by the frame writer at the
	// flush syscall — the one chokepoint all frames pass through,
	// including streamed want parts — and inbound by the read loop, so
	// the pair cannot drift from what actually moved.
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

func (m *opMetrics) init(r *obs.Registry, side string) {
	prefix := "forkbase_" + side + "_"
	for op := wire.OpHello; op < wire.OpMax; op++ {
		tag := `op="` + wire.OpName(op) + `"`
		m.reqs[op] = r.Counter(prefix+"requests_total", tag)
		m.errs[op] = r.Counter(prefix+"request_errors_total", tag)
		m.lat[op] = r.Histogram(prefix+"latency_ns", tag)
	}
	m.bytesIn = r.Counter(prefix+"wire_bytes_total", `dir="in"`)
	m.bytesOut = r.Counter(prefix+"wire_bytes_total", `dir="out"`)
}

// observe records one finished request: its count, its latency d and,
// when it failed, an error.
func (m *opMetrics) observe(op uint8, d time.Duration, failed bool) {
	m.reqs[op].Inc()
	m.lat[op].Observe(int64(d))
	if failed {
		m.errs[op].Inc()
	}
}

// serverMetrics is the server's instrument table: the per-op table
// plus what only a server counts.
type serverMetrics struct {
	opMetrics
	errCode  [wire.NumErrorCodes]*obs.Counter
	inflight *obs.Gauge

	// chunksync byte counters, one per transfer direction: ids
	// negotiated (have), chunk bytes admitted on upload (send) and
	// shipped in want-part frames (stream).
	chunksync [csOps]*obs.Counter
}

func (m *serverMetrics) init(r *obs.Registry) {
	m.opMetrics.init(r, "server")
	for code := uint8(0); code < wire.NumErrorCodes; code++ {
		m.errCode[code] = r.Counter("forkbase_server_errors_by_code_total", `code="`+wire.CodeName(code)+`"`)
	}
	m.inflight = r.Gauge("forkbase_server_inflight_requests", "")
	for i, dir := range []string{"have", "send", "stream"} {
		m.chunksync[i] = r.Counter("forkbase_server_chunksync_bytes_total", `op="`+dir+`"`)
	}
}

// observe records one dispatched request: count, latency, error
// classification (the response payload's status byte and wire code),
// and the threshold-gated slow-op log line. Zero allocations unless
// the slow-op line actually fires.
func (s *Server) observe(sc *serverConn, op uint8, start time.Time, resp []byte) {
	d := time.Since(start)
	failed := len(resp) > 0 && resp[0] == 1
	s.met.observe(op, d, failed)
	if failed && len(resp) > 1 && resp[1] < wire.NumErrorCodes {
		s.met.errCode[resp[1]].Inc()
	}
	if t := s.opts.SlowOpThreshold; t > 0 && d >= t {
		status := "ok"
		if len(resp) > 0 && resp[0] == 1 {
			status = "error"
			if len(resp) > 1 {
				status = "error=" + wire.CodeName(resp[1])
			}
		}
		s.logf("forkserved: slow op %s from %s: %v (threshold %v, %s)",
			wire.OpName(op), sc.c.RemoteAddr(), d, t, status)
	}
}

// reqDone releases one admitted request. The drain WaitGroup and the
// in-flight gauge move together here, always — a site calling one
// without the other would skew the gauge for the server's lifetime.
func (s *Server) reqDone() {
	s.met.inflight.Add(-1)
	s.inflight.Done()
}

// Metrics returns the server's own registry: per-op request counters
// and latency histograms, wire byte counters, in-flight gauge, queue
// depth. Engine metrics live on the backend DB's registry; use
// MetricsSnapshot for the merged view.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// MetricsSnapshot returns the merged observability snapshot — the
// server's registry plus the backend DB's (when the backend is an
// embedded *DB) — sorted by metric name then tags. This is the body
// of an OpServerStats response and of forkserved's /metrics page.
func (s *Server) MetricsSnapshot() []MetricSample {
	if s.db != nil {
		return obs.MergeSamples(s.reg.Snapshot(), s.db.reg.Snapshot())
	}
	return s.reg.Snapshot()
}

// storeSeries maps each series of a DB's store counters to the
// StoreStats field it samples. newDBMetrics registers the series from
// it, and RemoteStore.Stats reads a server's snapshot back through it.
// A series named *_total is a counter, any other a gauge.
var storeSeries = map[string]string{
	"forkbase_store_puts_total":            "Puts",
	"forkbase_store_gets_total":            "Gets",
	"forkbase_store_dup_chunks_total":      "Dups",
	"forkbase_store_dup_bytes_total":       "DupBytes",
	"forkbase_store_read_bytes_total":      "ReadBytes",
	"forkbase_store_cache_hits_total":      "CacheHits",
	"forkbase_store_cache_misses_total":    "CacheMisses",
	"forkbase_store_cache_evictions_total": "CacheEvictions",
	"forkbase_store_cache_bytes":           "CacheBytes",
	"forkbase_store_chunks":                "Chunks",
	"forkbase_store_bytes":                 "Bytes",
}

// newDBMetrics builds a DB's registry: engine and store gauges
// re-homed from the ad-hoc stat structs (sampled at snapshot time, so
// the hot path pays nothing it was not already paying), plus the GC
// pause and journal fsync histograms the engine feeds directly.
func newDBMetrics(db *DB) *obs.Registry {
	r := obs.NewRegistry()
	for name, field := range storeSeries {
		field := field
		sample := func() int64 { return reflect.ValueOf(db.Stats()).FieldByName(field).Int() }
		if strings.HasSuffix(name, "_total") {
			r.CounterFunc(name, "", sample)
		} else {
			r.GaugeFunc(name, "", sample)
		}
	}
	r.GaugeFunc("forkbase_meta_wal_bytes", "", func() int64 {
		ms, ok := db.MetaStats()
		if !ok {
			return 0
		}
		return ms.WALBytes
	})
	return r
}

// MetricsSnapshot returns the DB's engine/store metrics, sorted. For
// a DB behind a Server the server's MetricsSnapshot already includes
// these.
func (db *DB) MetricsSnapshot() []MetricSample { return db.reg.Snapshot() }
