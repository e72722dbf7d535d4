package forkbase_test

// One benchmark family per table and figure of the paper's evaluation
// (§6) — each wraps the corresponding experiment of internal/bench so
// `go test -bench .` regenerates the full study (output goes to the
// benchmark log), plus focused micro-benchmarks for the operations the
// tables measure. Performance claims cite the repository benchmark
// instead; see benchmark/README.md.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"

	forkbase "forkbase"

	"forkbase/internal/bench"
	"forkbase/internal/workload"
)

var bctx = context.Background()

// experimentOut returns the destination for experiment rows: verbose
// benchmark runs (-v) print them; normal runs keep the log clean.
func experimentOut() io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func runExperiment(b *testing.B, fn func(io.Writer, bench.Scale) error) {
	b.Helper()
	// Scratch dirs come from the testing framework: tracked, unique
	// per call, and removed even when an experiment aborts mid-way.
	prev := bench.TempDirFunc
	bench.TempDirFunc = func(string) (string, error) { return b.TempDir(), nil }
	defer func() { bench.TempDirFunc = prev }()
	for i := 0; i < b.N; i++ {
		if err := fn(experimentOut(), bench.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Operations(b *testing.B)   { runExperiment(b, bench.RunTable3) }
func BenchmarkTable4PutBreakdown(b *testing.B) { runExperiment(b, bench.RunTable4) }
func BenchmarkFig8Scalability(b *testing.B)    { runExperiment(b, bench.RunFig8) }
func BenchmarkFig9ChainOps(b *testing.B)       { runExperiment(b, bench.RunFig9) }
func BenchmarkFig11CommitLatency(b *testing.B) { runExperiment(b, bench.RunFig11) }
func BenchmarkFig12Scans(b *testing.B)         { runExperiment(b, bench.RunFig12) }
func BenchmarkFig13WikiEdit(b *testing.B)      { runExperiment(b, bench.RunFig13) }
func BenchmarkFig14WikiVersions(b *testing.B)  { runExperiment(b, bench.RunFig14) }
func BenchmarkFig15SkewBalance(b *testing.B)   { runExperiment(b, bench.RunFig15) }
func BenchmarkFig16DatasetMod(b *testing.B)    { runExperiment(b, bench.RunFig16) }
func BenchmarkFig17DiffAggregate(b *testing.B) { runExperiment(b, bench.RunFig17) }

func BenchmarkAblationFixedVsPattern(b *testing.B) { runExperiment(b, bench.RunAblationFixedVsPattern) }
func BenchmarkAblationChunkSize(b *testing.B)      { runExperiment(b, bench.RunAblationChunkSize) }
func BenchmarkAblationHash(b *testing.B)           { runExperiment(b, bench.RunAblationHash) }
func BenchmarkAblationIndexPattern(b *testing.B)   { runExperiment(b, bench.RunAblationIndexPattern) }

// --- focused micro-benchmarks ---------------------------------------

// BenchmarkPut and BenchmarkBatchPut are a matched pair: the same
// write stream (small String values over 8 keys) issued as individual
// Puts vs 64-write batches through Store.Apply, against both Store
// implementations. The batch amortizes per-write key-lock acquisition,
// head loading and branch-table updates on the embedded engine, and —
// the architectural win — collapses per-write servlet dispatches (one
// channel round-trip each) into one dispatch per owning servlet on the
// cluster.

func batchBackends(b *testing.B) map[string]forkbase.Store {
	b.Helper()
	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 4, TwoLayer: true})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]forkbase.Store{"embedded": forkbase.Open(), "cluster": cc}
}

func BenchmarkPut(b *testing.B) {
	for name, st := range batchBackends(b) {
		b.Run(name, func(b *testing.B) {
			v := forkbase.String("batched-write-payload-0000000000")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.Put(bctx, fmt.Sprintf("k%d", i%8), v); err != nil {
					b.Fatal(err)
				}
			}
		})
		st.Close()
	}
}

func BenchmarkBatchPut(b *testing.B) {
	for name, st := range batchBackends(b) {
		b.Run(name, func(b *testing.B) {
			v := forkbase.String("batched-write-payload-0000000000")
			const batchSize = 64
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				batch := forkbase.NewBatch()
				for i := 0; i < batchSize && done+i < b.N; i++ {
					batch.Put(fmt.Sprintf("k%d", (done+i)%8), v)
				}
				if _, err := st.Apply(bctx, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
		st.Close()
	}
}

func BenchmarkPutString1K(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	data := workload.RandText(rand.New(rand.NewSource(1)), 1<<10)
	b.SetBytes(1 << 10)
	b.ResetTimer()
	// A bounded key space keeps the branch tables small so the bench
	// measures Put itself, not map growth; versions still accumulate.
	for i := 0; i < b.N; i++ {
		if _, err := db.Put(bctx, fmt.Sprintf("k%d", i%8192), forkbase.String(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutBlob20K(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	data := workload.RandText(rand.New(rand.NewSource(2)), 20<<10)
	b.SetBytes(20 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := append([]byte(nil), data...)
		copy(p, fmt.Sprintf("%016d", i))
		if _, err := db.Put(bctx, fmt.Sprintf("k%d", i%8192), forkbase.NewBlob(p)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetBlobFull20K(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	data := workload.RandText(rand.New(rand.NewSource(3)), 20<<10)
	for i := 0; i < 64; i++ {
		if _, err := db.Put(bctx, fmt.Sprintf("k%d", i), forkbase.NewBlob(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(20 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := db.Get(bctx, fmt.Sprintf("k%d", i%64))
		if err != nil {
			b.Fatal(err)
		}
		blob, err := db.BlobOf(o)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := blob.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetFileStore reads Blob objects back from the log-structured
// file store with the chunk cache off and on. The repeated-read
// workload is the cache's target case: with the cache, the per-read
// disk fetch, crc check and chunk decode happen only on first touch.
func BenchmarkGetFileStore(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts forkbase.Options
	}{
		{"nocache", forkbase.Options{}},
		{"cache64MB", forkbase.Options{CacheBytes: 64 << 20}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			db, err := forkbase.OpenPath(b.TempDir(), tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			data := workload.RandText(rand.New(rand.NewSource(5)), 64<<10)
			const objects = 64
			for i := 0; i < objects; i++ {
				p := append([]byte(nil), data...)
				copy(p, fmt.Sprintf("%08d", i))
				if _, err := db.Put(bctx, fmt.Sprintf("k%d", i), forkbase.NewBlob(p)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := db.Get(bctx, fmt.Sprintf("k%d", i%objects))
				if err != nil {
					b.Fatal(err)
				}
				blob, err := db.BlobOf(o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := blob.Bytes(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBlobSpliceMiddle(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	data := workload.RandText(rand.New(rand.NewSource(4)), 256<<10)
	if _, err := db.Put(bctx, "blob", forkbase.NewBlob(data)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := db.Get(bctx, "blob")
		if err != nil {
			b.Fatal(err)
		}
		blob, err := db.BlobOf(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := blob.Splice(128<<10, 8, []byte(fmt.Sprintf("%08d", i))); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Put(bctx, "blob", blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapSetIn100K(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	m := forkbase.NewMap()
	for i := 0; i < 100_000; i++ {
		m.Set([]byte(fmt.Sprintf("key-%08d", i)), []byte("value-00000000"))
	}
	if _, err := db.Put(bctx, "map", m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := db.Get(bctx, "map")
		if err != nil {
			b.Fatal(err)
		}
		mm, err := db.MapOf(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := mm.Set([]byte(fmt.Sprintf("key-%08d", i%100_000)), []byte(fmt.Sprintf("value-%08d", i))); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Put(bctx, "map", mm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMapGetIn100K(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	m := forkbase.NewMap()
	for i := 0; i < 100_000; i++ {
		m.Set([]byte(fmt.Sprintf("key-%08d", i)), []byte("value"))
	}
	if _, err := db.Put(bctx, "map", m); err != nil {
		b.Fatal(err)
	}
	o, _ := db.Get(bctx, "map")
	mm, _ := db.MapOf(o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := mm.Get([]byte(fmt.Sprintf("key-%08d", i%100_000))); err != nil || !ok {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackHistory(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	for i := 0; i < 100; i++ {
		if _, err := db.Put(bctx, "doc", forkbase.String(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Track(bctx, "doc", 0, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffLargeMaps(b *testing.B) {
	db := forkbase.Open()
	defer db.Close()
	m := forkbase.NewMap()
	for i := 0; i < 50_000; i++ {
		m.Set([]byte(fmt.Sprintf("key-%08d", i)), []byte("value"))
	}
	u1, err := db.Put(bctx, "map", m)
	if err != nil {
		b.Fatal(err)
	}
	o, _ := db.Get(bctx, "map")
	mm, _ := db.MapOf(o)
	mm.Set([]byte("key-00025000"), []byte("changed"))
	u2, err := db.Put(bctx, "map", mm)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := db.Diff(bctx, "", u1, u2)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Sorted.Modified) != 1 {
			b.Fatal("diff wrong")
		}
	}
}

// benchRemote serves an in-memory store on a loopback listener and
// returns a connected client; cleanup drains the server.
func benchRemote(b *testing.B) *forkbase.RemoteStore {
	b.Helper()
	backend := forkbase.Open()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := forkbase.NewServer(backend, forkbase.ServerOptions{})
	go srv.Serve(ln)
	rc, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		rc.Close()
		srv.Close()
		backend.Close()
	})
	return rc
}

// BenchmarkRemotePut measures one small write across the wire —
// frame encode, TCP loopback, dispatch, engine put, response — the
// per-request floor of the serving subsystem. RunParallel overlaps
// requests the way a pipelined client does.
func BenchmarkRemotePut(b *testing.B) {
	rc := benchRemote(b)
	v := forkbase.String("remote-write-payload-00000000000")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := rc.Put(bctx, fmt.Sprintf("k%d", i%8), v); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkRemoteGet measures one small read across the wire.
func BenchmarkRemoteGet(b *testing.B) {
	rc := benchRemote(b)
	if _, err := rc.Put(bctx, "k", forkbase.String("remote-read-payload")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := rc.Get(bctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNetExperiment(b *testing.B) { runExperiment(b, bench.RunNet) }

func BenchmarkChunkSyncExperiment(b *testing.B) { runExperiment(b, bench.RunChunkSync) }
