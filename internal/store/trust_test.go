package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"forkbase/internal/chunk"
)

// trustChunks writes n random 4 KiB blob chunks to fs and returns them.
func trustChunks(t *testing.T, fs *FileStore, n int) []*chunk.Chunk {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	out := make([]*chunk.Chunk, n)
	for i := range out {
		data := make([]byte, 4<<10)
		rng.Read(data)
		out[i] = chunk.New(chunk.TypeBlob, data)
		if _, err := fs.Put(out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFileStoreColdGetHashes pins what a read below every cache costs
// in sha256: nothing by default, because the store serves a record it
// indexed under the id it indexed it by, and exactly one digest per Get
// under Verified, which trusts nothing below it. Replay, which has no
// id to trust, hashes every record once.
func TestFileStoreColdGetHashes(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := trustChunks(t, fs, 16)
	get := func(s Store) int64 {
		t.Helper()
		before := chunk.Digests()
		for _, c := range want {
			got, err := s.Get(c.ID())
			if err != nil {
				t.Fatal(err)
			}
			if got.ID() != c.ID() || !bytes.Equal(got.Data(), c.Data()) {
				t.Fatalf("Get(%s) served other bytes", c.ID().Short())
			}
		}
		return chunk.Digests() - before
	}
	if n := get(fs); n != 0 {
		t.Fatalf("%d cold Gets of the active segment computed %d sha256, want 0", len(want), n)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	before := chunk.Digests()
	if fs, err = OpenFileStore(dir, FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if n := chunk.Digests() - before; n != int64(len(want)) {
		t.Fatalf("replay of %d records computed %d sha256, want one each", len(want), n)
	}
	if n := get(fs); n != 0 {
		t.Fatalf("%d cold Gets after reopen computed %d sha256, want 0", len(want), n)
	}
	if n := get(Verified(fs)); n != int64(len(want)) {
		t.Fatalf("%d cold Gets under Verified computed %d sha256, want exactly one each", len(want), n)
	}
}

// substituteRecord overwrites victim's record in the active segment
// with a copy of donor's: a whole record, crc included, so the crc
// check passes and only a rehash can tell. The two payloads must be
// the same length.
func substituteRecord(t *testing.T, fs *FileStore, victim, donor chunk.ID) {
	t.Helper()
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	fs.mu.RLock()
	v, d := fs.index[victim], fs.index[donor]
	fs.mu.RUnlock()
	if v.n != d.n || v.seg != d.seg {
		t.Fatalf("records differ in length or segment: %+v vs %+v", v, d)
	}
	f, err := os.OpenFile(segName(fs.dir, v.seg), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := make([]byte, recordHeader+d.n)
	if _, err := f.ReadAt(rec, d.off-recordHeader); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(rec, v.off-recordHeader); err != nil {
		t.Fatal(err)
	}
}

// TestFileStoreSubstitutedRecordCaughtByVerified rewrites one record
// with another, valid crc and all — a storage provider that tampers
// with the log (§2.3). The crc cannot see it; Verified rehashes and
// reports ErrCorrupt, and the untouched record still reads.
func TestFileStoreSubstitutedRecordCaughtByVerified(t *testing.T) {
	fs, err := OpenFileStore(t.TempDir(), FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	cs := trustChunks(t, fs, 2)
	substituteRecord(t, fs, cs[0].ID(), cs[1].ID())
	v := Verified(fs)
	if _, err := v.Get(cs[0].ID()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verified Get of a substituted record: %v, want ErrCorrupt", err)
	}
	if _, err := NewCache(v, 1<<20).Get(cs[0].ID()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cached Verified Get of a substituted record: %v, want ErrCorrupt", err)
	}
	if c, err := v.Get(cs[1].ID()); err != nil || !bytes.Equal(c.Data(), cs[1].Data()) {
		t.Fatalf("the donor record no longer reads under Verified: %v", err)
	}
}

// TestFileStoreReplayBoundsLength damages the first record's length
// field to claim nearly 4 GiB. Replay treats it as the end of the
// intact log, as it does any torn record, and allocates nothing near
// what the header claims.
func TestFileStoreReplayBoundsLength(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trustChunks(t, fs, 4)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segName(dir, 0), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xf0, 0xff, 0xff, 0xff}, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if fs, err = OpenFileStore(dir, FileStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer fs.Close()
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Fatalf("replay of a 16 KiB segment allocated %d bytes", n)
	}
	if st := fs.Stats(); st.Chunks != 0 {
		t.Fatalf("replay indexed %d records past a damaged first header", st.Chunks)
	}
}
