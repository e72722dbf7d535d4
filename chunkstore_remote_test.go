package forkbase_test

// The client chunk store is an on-disk log behind a CLOCK ring over an
// 8-byte cid index, of ChunkCacheBytes: where it lives, that it goes
// away with the client, and that resident memory is the cache's budget
// and the log's index, not the history the client has read and
// written. Also the log's trust rule seen from the public API:
// WithVerifyReads rehashes every read.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	forkbase "forkbase"
)

// chunkDirs lists the private chunk store directories under dir.
func chunkDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "forkbase-chunks-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestRemoteChunkStorePrivateDir dials chunk-sync clients without a
// ChunkCacheDir: each gets a directory of its own under the temp dir,
// Close removes it, and so does a Dial that fails. A client without
// chunk sync makes none.
func TestRemoteChunkStorePrivateDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})

	plain, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if dirs := chunkDirs(t, tmp); len(dirs) != 0 {
		t.Fatalf("a client without chunk sync made %v", dirs)
	}

	a, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	first := chunkDirs(t, tmp)
	b, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	both := chunkDirs(t, tmp)
	if len(first) != 1 || len(both) != 2 || both[0] == both[1] {
		t.Fatalf("two dials made %v, then %v; want one directory each", first, both)
	}
	// The store is in use: a read lands in it.
	ctx := context.Background()
	data := randBytes(61, 256<<10)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	if got := readDoc(t, a, "doc"); !bytes.Equal(got, data) {
		t.Fatal("read through the private store came back wrong")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if left := chunkDirs(t, tmp); len(left) != 1 || left[0] == first[0] {
		t.Fatalf("after the first client closed: %v; want only the second's", left)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if left := chunkDirs(t, tmp); len(left) != 0 {
		t.Fatalf("after both clients closed: %v", left)
	}

	// A Dial that fails removes the directory it made.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := forkbase.Dial(dead, forkbase.RemoteConfig{ChunkSync: true, DialTimeout: time.Second}); err == nil {
		t.Fatal("Dial to a closed port succeeded")
	}
	if left := chunkDirs(t, tmp); len(left) != 0 {
		t.Fatalf("a failed Dial left %v", left)
	}
}

// TestRemoteChunkStoreSweepsDeadOwners: a client killed before Close
// leaves its private directory behind with a lock file nobody holds —
// the kernel drops a dead process's locks. The next Dial that makes a
// private directory removes it, and leaves alone a live client's
// directory and one whose owner has not locked it yet.
func TestRemoteChunkStoreSweepsDeadOwners(t *testing.T) {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly":
	default:
		t.Skip("private chunk directories are locked with flock on unix systems only")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	db := forkbase.Open()
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	live, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	liveDir := chunkDirs(t, tmp)
	if len(liveDir) != 1 {
		t.Fatalf("the live client made %v", liveDir)
	}
	dead, err := os.MkdirTemp(tmp, "forkbase-chunks-")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"seg-000001.log", "lock"} {
		if err := os.WriteFile(filepath.Join(dead, name), []byte("left by a killed client"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	unlocked, err := os.MkdirTemp(tmp, "forkbase-chunks-")
	if err != nil {
		t.Fatal(err)
	}

	next, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	left := map[string]bool{}
	for _, d := range chunkDirs(t, tmp) {
		left[d] = true
	}
	if left[filepath.Base(dead)] {
		t.Fatalf("a Dial left the dead client's directory: %v", left)
	}
	if !left[liveDir[0]] || !left[filepath.Base(unlocked)] || len(left) != 3 {
		t.Fatalf("after the sweep: %v; want the live client's %s, the unlocked %s and the new client's",
			left, liveDir[0], filepath.Base(unlocked))
	}
	// The live client's store is still whole.
	ctx := context.Background()
	data := randBytes(63, 128<<10)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	if got := readDoc(t, live, "doc"); !bytes.Equal(got, data) {
		t.Fatal("the live client's read came back wrong after the sweep")
	}
}

// TestRemoteChunkStoreResidentWithinBudget reads and edits many times
// the client's ChunkCacheBytes of distinct chunks. The client keeps all
// of them — the store behind the cache holds the whole history — yet the
// heap grows by no more than the budget, the on-disk logs' indexes (the
// client's and the server's) and a fixed allowance.
func TestRemoteChunkStoreResidentWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("moves tens of MiB")
	}
	const (
		budget   = 1 << 20
		pages    = 48
		pageSize = 256 << 10
		// indexEntry bounds one FileStore index entry: a 32-byte id,
		// a 24-byte location, the map's buckets at their lowest load
		// and a map caught mid-growth with both bucket arrays live.
		indexEntry = 256
		allowance  = 4 << 20
	)
	ctx := context.Background()
	db, err := forkbase.OpenPath(t.TempDir(), forkbase.WithCacheBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		page := randBytes(int64(100+i), pageSize)
		if _, err := db.Put(ctx, fmt.Sprintf("page-%02d", i), forkbase.NewBlob(page)); err != nil {
			t.Fatal(err)
		}
	}
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true, ChunkCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < pages; i++ {
		key := fmt.Sprintf("page-%02d", i)
		o, err := rc.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := rc.Value(ctx, key, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := forkbase.AsBlob(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, randBytes(int64(100+i), pageSize)) {
			t.Fatalf("%s read back wrong", key)
		}
		if err := b.Splice(uint64(rng.Intn(pageSize-64)), 64, randBytes(int64(200+i), 64)); err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Put(ctx, key, b); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()

	st := rc.ChunkCacheStatsForTest()
	if st.CacheBytes > budget {
		t.Fatalf("the cache holds %d bytes over a budget of %d", st.CacheBytes, budget)
	}
	if st.Bytes < 8*budget {
		t.Fatalf("the client store holds %d bytes: the workload did not outgrow the %d-byte budget", st.Bytes, budget)
	}
	chunks := uint64(st.Chunks) + uint64(db.Stats().Chunks)
	bound := uint64(budget) + chunks*indexEntry + allowance
	if after > before && after-before > bound {
		t.Fatalf("heap grew by %d bytes while the client stored %d bytes in %d chunks; bound %d (budget %d + index %d + %d)",
			after-before, st.Bytes, st.Chunks, bound, budget, chunks*indexEntry, allowance)
	}
	t.Logf("heap grew by %d bytes; the client stores %d bytes in %d chunks", int64(after)-int64(before), st.Bytes, st.Chunks)
}

// TestVerifyReadsCatchesSubstitutedRecord rewrites, while the store is
// open, one version's meta record with another's of the same length,
// crc and all: a storage provider that tampers with the log (§2.3). A
// default read trusts the record's crc and the index; WithVerifyReads
// rehashes, and the read fails with ErrCorrupt.
func TestVerifyReadsCatchesSubstitutedRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	db, err := forkbase.OpenPath(dir, forkbase.WithVerifyReads(true))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	valA, valB := strings.Repeat("a", 64), strings.Repeat("b", 64)
	if _, err := db.Put(ctx, "ka", forkbase.String(valA)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(ctx, "kb", forkbase.String(valB)); err != nil {
		t.Fatal(err)
	}
	// A read pushes the log's buffered tail to the file.
	if _, err := db.Get(ctx, "ka"); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-000000.log")
	log, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the records (crc32 | len | body) for the one holding each value.
	find := func(val string) (int, []byte) {
		for off := 0; off+8 <= len(log); {
			n := int(binary.LittleEndian.Uint32(log[off+4:]))
			body := log[off+8 : off+8+n]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(log[off:]) {
				t.Fatalf("record at %d fails its crc before any tampering", off)
			}
			if bytes.Contains(body, []byte(val)) {
				return off, log[off : off+8+n]
			}
			off += 8 + n
		}
		t.Fatalf("no record holds %q", val[:4])
		return 0, nil
	}
	offA, recA := find(valA)
	_, recB := find(valB)
	if len(recA) != len(recB) {
		t.Fatalf("meta records of %d and %d bytes cannot be swapped", len(recA), len(recB))
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(recB, int64(offA)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := db.Get(ctx, "ka"); !errors.Is(err, forkbase.ErrCorrupt) {
		t.Fatalf("read of a substituted record under WithVerifyReads: %v, want ErrCorrupt", err)
	}
	o, err := db.Get(ctx, "kb")
	if err != nil {
		t.Fatalf("the untouched record no longer reads: %v", err)
	}
	if v, err := db.Value(ctx, "kb", o); err != nil || v != forkbase.String(valB) {
		t.Fatalf("kb reads %v, %v", v, err)
	}
}
