package store

import (
	"errors"
	"math/rand"
	"os"
	"testing"

	"forkbase/internal/chunk"
)

// seededRecord is one record of the seeded store: where it lies in its
// segment file, and the chunk it holds.
type seededRecord struct {
	seg      int
	off, end int64 // record start (header) and end in the segment file
	c        *chunk.Chunk
}

// seedStore writes a small multi-segment store and returns its segment
// files' bytes, in segment order, and its records in log order.
func seedStore(f *testing.F) ([][]byte, []seededRecord) {
	dir := f.TempDir()
	fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	var recs []seededRecord
	for i := 0; i < 24; i++ {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		c := chunk.New(chunk.TypeBlob+chunk.Type(i%4), data)
		if _, err := fs.Put(c); err != nil {
			f.Fatal(err)
		}
		loc := fs.index[c.ID()]
		recs = append(recs, seededRecord{seg: loc.seg, off: loc.off - recordHeader, end: loc.off + int64(loc.n), c: c})
	}
	if err := fs.Close(); err != nil {
		f.Fatal(err)
	}
	var segs [][]byte
	for seg := 0; ; seg++ {
		b, err := os.ReadFile(segName(dir, seg))
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			f.Fatal(err)
		}
		segs = append(segs, b)
	}
	if len(segs) < 3 {
		f.Fatalf("seeded store has %d segments, want several", len(segs))
	}
	return segs, recs
}

// damage applies the input's edits to the segment files: each edit is
// an opcode byte and its operands, read from the input until it runs
// out.
//
//	0 flip:      seg, pos(2), mask        xor one byte
//	1 truncate:  seg, pos(2)              cut the file there
//	2 splice:    seg, pos(2), n, seg, pos(2)
//	                                      copy n bytes over another place
//	3 duplicate: rec, seg, rec            insert a copy of a record at
//	                                      the start of another
//	4 append:    seg, n, bytes(n)         add bytes at the end
func damage(in []byte, segs [][]byte, recs []seededRecord) [][]byte {
	out := make([][]byte, len(segs))
	for i, b := range segs {
		out[i] = append([]byte(nil), b...)
	}
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return int(b)
	}
	pos := func(b []byte) int {
		p := next()<<8 | next()
		if len(b) == 0 {
			return 0
		}
		return p % (len(b) + 1)
	}
	for len(in) > 0 {
		switch next() % 5 {
		case 0:
			s := next() % len(out)
			p := pos(out[s])
			if p < len(out[s]) {
				out[s][p] ^= byte(next() | 1)
			}
		case 1:
			s := next() % len(out)
			out[s] = out[s][:pos(out[s])]
		case 2:
			s := next() % len(out)
			p := pos(out[s])
			n := next()
			piece := append([]byte(nil), out[s][p:min(p+n, len(out[s]))]...)
			d := next() % len(out)
			q := pos(out[d])
			if grow := q + len(piece) - len(out[d]); grow > 0 {
				out[d] = append(out[d], make([]byte, grow)...)
			}
			copy(out[d][q:], piece)
		case 3:
			r := recs[next()%len(recs)]
			rec := segs[r.seg][r.off:r.end]
			s := next() % len(out)
			var at int64
			for _, o := range recs {
				if o.seg == s && next()%2 == 0 {
					at = o.off
					break
				}
			}
			at = min(at, int64(len(out[s])))
			out[s] = append(out[s][:at:at], append(append([]byte(nil), rec...), out[s][at:]...)...)
		case 4:
			s := next() % len(out)
			n := next()
			for i := 0; i < n && len(in) > 0; i++ {
				out[s] = append(out[s], byte(next()))
			}
		}
	}
	return out
}

// FuzzFileStoreOpen damages a seeded store's segment files as the
// input says — flipped bytes, truncations, spliced ranges, duplicated
// records, appended bytes — and opens it. Open never panics and never
// fails. Every id it serves reads as bytes whose sha256 is that id, or
// as ErrCorrupt; every record that lies before the first damaged byte
// of its segment is still served; and the store takes a write and
// serves all of it again after another reopen. After replay, a Get
// trusts the crc and the index alone, so this is what stands between
// a damaged disk and a wrong answer.
func FuzzFileStoreOpen(f *testing.F) {
	segs, recs := seedStore(f)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 40, 0x80})
	f.Add([]byte{0, 0, 0, 5, 0xff}) // a length byte of the first header
	f.Add([]byte{1, 2, 0, 100})     // truncate mid-segment
	f.Add([]byte{1, 0, 0, 0})       // empty the first segment
	f.Add([]byte{2, 0, 0, 0, 200, 1, 0, 30})
	f.Add([]byte{3, 5, 1, 1, 0, 1})    // duplicate a record into segment 1
	f.Add([]byte{4, 3, 8, 1, 2, 3, 4}) // garbage after the last record
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 256 {
			return
		}
		files := damage(in, segs, recs)
		dir := t.TempDir()
		for i, b := range files {
			if err := os.WriteFile(segName(dir, i), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The first byte of each segment the damage changed.
		firstDiff := make([]int64, len(files))
		for i, b := range files {
			n := min(len(b), len(segs[i]))
			firstDiff[i] = int64(n)
			for j := 0; j < n; j++ {
				if b[j] != segs[i][j] {
					firstDiff[i] = int64(j)
					break
				}
			}
		}
		fs, err := OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10})
		if err != nil {
			t.Fatalf("open of a damaged store: %v", err)
		}
		served := checkServed(t, fs)
		for _, r := range recs {
			if r.end <= firstDiff[r.seg] && !served[r.c.ID()] {
				t.Fatalf("record at seg %d offset %d, before the damage, is not served", r.seg, r.off)
			}
		}
		extra := chunk.New(chunk.TypeBlob, []byte("written after the damage"))
		if _, err := fs.Put(extra); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if fs, err = OpenFileStore(dir, FileStoreOptions{SegmentSize: 2 << 10}); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer fs.Close()
		again := checkServed(t, fs)
		if !again[extra.ID()] {
			t.Fatal("a chunk written after the damage is lost by the next reopen")
		}
		for id := range served {
			if !again[id] {
				t.Fatalf("%s was served, then lost by a reopen", id.Short())
			}
		}
	})
}

// checkServed reads every id fs indexes: each reads as bytes whose
// sha256 is the id, or as ErrCorrupt. It returns the ids that read.
func checkServed(t *testing.T, fs *FileStore) map[chunk.ID]bool {
	t.Helper()
	fs.mu.RLock()
	ids := make([]chunk.ID, 0, len(fs.index))
	for id := range fs.index {
		ids = append(ids, id)
	}
	fs.mu.RUnlock()
	served := make(map[chunk.ID]bool, len(ids))
	for _, id := range ids {
		c, err := fs.Get(id)
		if errors.Is(err, ErrCorrupt) {
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s): %v", id.Short(), err)
		}
		if chunk.New(c.Type(), c.Data()).ID() != id {
			t.Fatalf("Get(%s) served bytes that hash to another id", id.Short())
		}
		served[id] = true
	}
	return served
}
