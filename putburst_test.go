package forkbase_test

import (
	"net"
	"sync"
	"testing"

	forkbase "forkbase"
)

// putBurst is how many small Puts BenchmarkRemotePutBurst issues at
// once: the depth of a pipelined client that keeps a burst in flight.
const putBurst = 32

// BenchmarkRemotePutBurst measures bursts of small Puts on one
// connection. Each iteration starts putBurst concurrent Puts of
// distinct keys through one RemoteStore, whose frame writer packs them
// into shared socket writes, and waits for every answer. It reports
// puts/s and, on a journaled server, the journal and chunk-log fsyncs
// per put: under MetaSync a burst the server reads together should
// cost one of each, not one per Put. Run it at a fixed count
// (-benchtime 200x): versions accumulate per key.
func BenchmarkRemotePutBurst(b *testing.B) {
	b.Run("mem", func(b *testing.B) { benchPutBurst(b, forkbase.Open()) })
	b.Run("metasync", func(b *testing.B) {
		db, err := forkbase.OpenPath(b.TempDir(), forkbase.WithMetaSync(true))
		if err != nil {
			b.Fatal(err)
		}
		benchPutBurst(b, db)
	})
}

func benchPutBurst(b *testing.B, db *forkbase.DB) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := forkbase.NewServer(db, forkbase.ServerOptions{})
	go srv.Serve(ln)
	rc, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		rc.Close()
		srv.Close()
		db.Close()
	})
	keys := make([]string, putBurst)
	for i := range keys {
		keys[i] = "burst-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	v := forkbase.String("burst-payload-0000000000000000000")
	fsyncs, chunkLog := journalFsyncs(db), chunkLogFsyncs(db)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		wg.Add(putBurst)
		for _, key := range keys {
			go func(key string) {
				defer wg.Done()
				if _, err := rc.Put(bctx, key, v); err != nil {
					b.Error(err)
				}
			}(key)
		}
		wg.Wait()
	}
	b.StopTimer()
	puts := float64(putBurst * b.N)
	b.ReportMetric(puts/b.Elapsed().Seconds(), "puts/s")
	b.ReportMetric(float64(journalFsyncs(db)-fsyncs)/puts, "fsyncs/put")
	b.ReportMetric(float64(chunkLogFsyncs(db)-chunkLog)/puts, "chunklog-fsyncs/put")
}

// journalFsyncs reads how many fsyncs the DB's metadata journal has
// made: the count of its fsync latency histogram.
func journalFsyncs(db *forkbase.DB) int64 { return histCount(db, "forkbase_journal_fsync_ns") }

// chunkLogFsyncs reads how many write-ahead barriers fsynced the DB's
// chunk log: the count of their latency histogram.
func chunkLogFsyncs(db *forkbase.DB) int64 { return histCount(db, "forkbase_chunklog_fsync_ns") }

func histCount(db *forkbase.DB, name string) int64 {
	for _, s := range db.MetricsSnapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
