package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"forkbase/internal/store"
)

// The per-layer side of the benchmark. Each layer is measured from
// outside the program, three ways (README, "Per-layer metrics"):
//
//	A  deltas of the public stats and metric snapshots over the passes;
//	B  layer replay: the workload's own payload driven through one
//	   layer's exported functions in isolation;
//	C  spans recorded at public seams (trace.go).
//
// A layer the workload never enters reports 0 for its A and C numbers;
// its B numbers are a property of the layer and are reported anyway.

var perLayerMetrics = []metricDef{
	{"wire.encode_ns", "ns", false},
	{"wire.decode_ns", "ns", false},
	{"wire.allocs_per_roundtrip", "count", false},
	{"wire.bytes_per_user_byte", "ratio", false},
	{"serve.transport_ns", "ns", false},
	{"serve.dispatch_ns", "ns", false},
	{"serve.loopback_rtt_ns", "ns", false},
	{"serve.allocs_per_op", "count", false},
	{"core.get_ns", "ns", false},
	{"core.put_ns", "ns", false},
	{"core.allocs_per_put", "count", false},
	{"branch.update_ns", "ns", false},
	{"branch.journal_record_ns", "ns", false},
	{"branch.journal_bytes_per_write", "bytes", false},
	{"rollsum.scan_mb_per_s", "MB/s", true},
	{"chunk.new_ns_per_kib", "ns/KiB", false},
	{"postree.build_mb_per_s", "MB/s", true},
	{"postree.splice_us", "us", false},
	{"postree.map_apply_us", "us", false},
	{"postree.read_mb_per_s", "MB/s", true},
	{"postree.chunks_written_per_edit", "count", false},
	{"postree.diff_ms", "ms", false},
	{"merge.threeway_ms", "ms", false},
	{"store.get_ns", "ns", false},
	{"store.put_ns", "ns", false},
	{"store.gets_per_op", "count", false},
	{"store.cache_hit_ratio", "ratio", true},
	{"store.bytes_written_per_user_byte", "ratio", false},
	{"chunksync.rounds_per_pull", "count", false},
	{"chunksync.moved_ratio", "ratio", false},
	{"chunksync.bytes_have", "bytes", false},
	{"chunksync.bytes_want", "bytes", false},
	{"chunksync.bytes_send", "bytes", false},
	{"chunksync.bytes_stream", "bytes", false},
	{"gc.runs", "count", true},
	{"gc.pause_ms", "ms", false},
	{"gc.bytes_reclaimed", "bytes", true},
	{"gc.bytes_rewritten", "bytes", false},
	{"trace.overhead_frac", "ratio", false},
	{"trace.residual_frac", "ratio", false},
}

// runTraced is the per-layer run of one workload: one client, an
// untraced pass then a traced pass over the next stretch of the same
// op stream, the layer replay, and the tables that tie them together.
// End-to-end metrics are never taken from here.
func runTraced(ctx context.Context, o options) (result, error) {
	tr := newTracer()
	w, dir, _, err := setUp(ctx, o, tr)
	if err != nil {
		return result{}, err
	}
	rec := &recorder{tr: tr}
	recs := []*recorder{rec}
	pass := time.Duration(o.seconds * float64(time.Second) / 3)
	drive(ctx, w, recs, pass/4) // warm-up

	rec.measuring = true
	var m0, m1 runtime.MemStats
	runtime.GC()
	c0 := w.counters()
	runtime.ReadMemStats(&m0)
	wallPlain := drive(ctx, w, recs, pass)[0]
	runtime.ReadMemStats(&m1)
	opsPlain := rec.ops

	tr.enable(true)
	wallTraced := drive(ctx, w, recs, pass)[0]
	tr.enable(false)
	c1 := w.counters()
	rec.measuring = false
	opsTraced := rec.ops - opsPlain
	payload := w.payload()
	w.verify(ctx, rec)
	if err := tearDown(w, dir); err != nil {
		return result{}, err
	}

	replayDir, err := os.MkdirTemp(o.tmp, "replay-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(replayDir)
	budget := 40 * time.Millisecond
	if o.smoke {
		budget = 2 * time.Millisecond
	}
	rp, err := replayLayers(ctx, o.seed, payload, replayDir, budget)
	if err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	m := rp.m

	// A: deltas over both passes; tracing does not change what they count.
	ops := float64(rec.ops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	wireBytes, _ := histDelta(c0.client, c1.client, "forkbase_client_wire_bytes_total", "")
	m["wire.bytes_per_user_byte"] = ratio(float64(wireBytes), float64(rec.userBytes))
	m["serve.allocs_per_op"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(opsPlain))

	clientReqs, clientNs := histDelta(c0.client, c1.client, "forkbase_client_latency_ns", "")
	serverReqs, serverNs := histDelta(c0.server, c1.server, "forkbase_server_latency_ns", "")
	rows, rootNs := tr.layerTable()
	// storeBusy: the server-side store spans (kv only). childBusy: the
	// client-side child spans that do not envelop a wire request.
	var storeBusy, childBusy float64
	for _, r := range rows {
		switch r.layer {
		case "client", "remote":
		case "store":
			storeBusy = float64(r.busyNs)
		default:
			childBusy += float64(r.busyNs)
		}
	}
	m["serve.transport_ns"] = ratio(float64(clientNs-serverNs), float64(clientReqs))
	// Store spans exist only where the stack offers the seam (kv), and
	// only for the traced pass: scale them to both passes by op count.
	storeBusyAll := storeBusy * ratio(ops, float64(opsTraced))
	m["serve.dispatch_ns"] = ratio(float64(serverNs)-storeBusyAll, float64(serverReqs))

	ds := func(f func(s store.Stats) int64) float64 { return float64(f(c1.store) - f(c0.store)) }
	m["store.gets_per_op"] = ratio(ds(func(s store.Stats) int64 { return s.Gets }), ops)
	hits, misses := ds(func(s store.Stats) int64 { return s.CacheHits }), ds(func(s store.Stats) int64 { return s.CacheMisses })
	m["store.cache_hit_ratio"] = ratio(hits, hits+misses)
	gc := c1.gc
	physical := ds(func(s store.Stats) int64 { return s.Bytes }) + float64(gc.ReclaimedBytes-c0.gc.ReclaimedBytes) + float64(gc.RelocatedBytes-c0.gc.RelocatedBytes)
	m["store.bytes_written_per_user_byte"] = ratio(physical, float64(rec.written))

	cs := func(op string) float64 {
		n, _ := histDelta(c0.server, c1.server, "forkbase_server_chunksync_bytes_total", `op="`+op+`"`)
		return float64(n)
	}
	m["chunksync.bytes_have"], m["chunksync.bytes_want"] = cs("have"), cs("want")
	m["chunksync.bytes_send"], m["chunksync.bytes_stream"] = cs("send"), cs("stream")
	m["chunksync.moved_ratio"] = ratio(cs("want")+cs("send")+cs("stream"), float64(rec.userBytes))

	gcRuns, gcNs := histDelta(c0.db, c1.db, "forkbase_gc_pause_ns", "")
	m["gc.runs"] = float64(gcRuns)
	m["gc.pause_ms"] = ratio(float64(gcNs)/1e6, float64(gcRuns))
	m["gc.bytes_reclaimed"] = float64(gc.ReclaimedBytes - c0.gc.ReclaimedBytes)
	m["gc.bytes_rewritten"] = float64(gc.RelocatedBytes - c0.gc.RelocatedBytes)

	ratePlain, rateTraced := ratio(float64(opsPlain), wallPlain.Seconds()), ratio(float64(opsTraced), wallTraced.Seconds())
	m["trace.overhead_frac"] = 1 - ratio(rateTraced, ratePlain)

	// Reconciliation: what the on-path layers add up to per client op,
	// against the mean root span: every part is a mean, and means add
	// up where medians do not. Remote workloads: every wire request
	// costs a loopback round trip and an encode+decode at both ends,
	// plus the server's own time for it; client-side child spans other
	// than the calls that envelop the wire add to that. Embedded: the
	// child spans are all there is. The median is printed beside it;
	// it is comparable only where every op is one request of one size.
	rootMean := ratio(float64(rootNs), float64(opsTraced))
	rootP50 := tr.rootP50()
	reqsPerOp := ratio(float64(clientReqs), ops)
	explained := ratio(childBusy, float64(opsTraced))
	if clientReqs > 0 {
		explained += reqsPerOp*(m["serve.loopback_rtt_ns"]+m["wire.encode_ns"]+m["wire.decode_ns"]) + ratio(float64(serverNs), ops)
	}
	m["trace.residual_frac"] = 1 - ratio(explained, rootMean)

	path, err := tr.writeSpans(o.traceDir, o.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.log, "traced run %s seed %d: %d ops untraced at %.1f/s, %d ops traced at %.1f/s, %d spans in %s (%d dropped)\n",
		o.workload, o.seed, opsPlain, ratePlain, opsTraced, rateTraced, len(tr.spans), path, tr.dropped)
	printLayerTable(o.log, o.workload, rows, rootNs, rp.allocs)
	fmt.Fprintf(o.log, "reconciliation %s: root mean %.0f ns/op, %.2f wire requests/op, on-path layers explain %.0f ns/op: residual %.1f%% of the mean; root p50 %.0f ns (read %.0f write %.0f scan %.0f): residual %.1f%% of the p50 (target <= 15%% on kv-small-remote)\n",
		o.workload, rootMean, reqsPerOp, explained, 100*m["trace.residual_frac"], rootP50["all"], rootP50["read"], rootP50["write"], rootP50["scan"], 100*(1-ratio(explained, rootP50["all"])))
	fmt.Fprintf(o.log, "trace_overhead_frac %.4f (1 - traced/untraced single-client ops/s)\n", m["trace.overhead_frac"])

	res := result{Attempted: rec.ops + rec.checks, Failed: rec.failed, Metrics: make(map[string]value)}
	res.Correct = res.Failed == 0
	if rec.firstErr != "" {
		fmt.Fprintf(o.log, "  first failure: %s\n", rec.firstErr)
	}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = value{m[d.name], d.unit}
		fmt.Fprintf(o.log, "  %-34s %16.3f %s\n", d.name, m[d.name], d.unit)
	}
	return res, nil
}
