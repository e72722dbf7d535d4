package main

import (
	"context"
	"reflect"
	"testing"
)

// streams generates every workload's op streams at smoke scale.
func streams(seed int64) map[string]any {
	return map[string]any{
		"kv0":     genKVStream(seed, 0, kvSizes(true)),
		"kv1":     genKVStream(seed, 1, kvSizes(true)),
		"blob0":   genBlobStream(seed, 0, blobSizes(true)),
		"blob1":   genBlobStream(seed, 1, blobSizes(true)),
		"ledger":  genLedgerStream(seed, ledgerSizes(true)),
		"dataset": genDatasetStream(seed, datasetSizes(true)),
	}
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	a, b, other := streams(7), streams(7), streams(8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: same seed, different streams", name)
		}
		if reflect.DeepEqual(a[name], other[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if la, lo := reflect.ValueOf(a[name]).Len(), reflect.ValueOf(other[name]).Len(); la != lo {
			t.Errorf("%s: stream length depends on the seed: %d vs %d", name, la, lo)
		}
	}
	if kv := a["kv0"].([]kvOp); kv[0] == a["kv1"].([]kvOp)[0] && kv[1] == a["kv1"].([]kvOp)[1] && kv[2] == a["kv1"].([]kvOp)[2] {
		t.Error("the two kv clients share a stream")
	}
}

// counts is what a fixed number of steps must reproduce exactly.
type counts struct {
	ops, failed, userBytes, written int64
	lat                             [numClasses]int
	chunksPut, storeBytes           int64
}

// runSteps sets a workload up at smoke scale and runs a fixed number
// of steps per client, one goroutine, so every count is exact.
func runSteps(t *testing.T, name string, seed int64, steps int) counts {
	t.Helper()
	ctx := context.Background()
	w, dir, _, err := setUp(ctx, options{workload: name, seed: seed, smoke: true, tmp: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{measuring: true}
	before := w.counters()
	for i := 0; i < steps; i++ {
		for c := 0; c < w.clients(); c++ {
			w.step(ctx, c, rec)
		}
	}
	after := w.counters()
	w.verify(ctx, rec)
	if err := tearDown(w, dir); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 {
		t.Fatalf("%s seed %d: %d failures, first: %s", name, seed, rec.failed, rec.firstErr)
	}
	c := counts{ops: rec.ops, failed: rec.failed, userBytes: rec.userBytes, written: rec.written,
		chunksPut: after.store.Puts - before.store.Puts, storeBytes: after.store.Bytes - before.store.Bytes}
	for cl := range rec.lat {
		c.lat[cl] = len(rec.lat[cl])
	}
	return c
}

func TestFixedStepsGiveExactCounts(t *testing.T) {
	steps := map[string]int{"kv-small-remote": 400, "blob-edit-remote": 60, "ledger-embedded": 400, "dataset-embedded": 9}
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			a, b := runSteps(t, name, 1, steps[name]), runSteps(t, name, 1, steps[name])
			if a != b {
				t.Errorf("same seed, different counts:\n%+v\n%+v", a, b)
			}
			if a.ops == 0 || a.userBytes == 0 || a.chunksPut == 0 {
				t.Errorf("nothing ran: %+v", a)
			}
			other := runSteps(t, name, 2, steps[name])
			if other == a {
				t.Errorf("seeds 1 and 2 produced identical byte and chunk counts: %+v", a)
			}
			if name != "kv-small-remote" && name != "blob-edit-remote" && (other.ops != a.ops || other.lat != a.lat) {
				// The remote mixes draw each op's kind from the seed; the
				// embedded ones fix the schedule, so counts per class hold.
				t.Errorf("op counts depend on the seed: %+v vs %+v", a.lat, other.lat)
			}
			if other.ops != a.ops {
				t.Errorf("seed changed the number of ops: %d vs %d", a.ops, other.ops)
			}
		})
	}
}
