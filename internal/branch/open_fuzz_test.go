package branch

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"forkbase/internal/types"
)

// journalSeed is a journal written by a fixed script of ops, kept as
// its files' bytes.
type journalSeed struct {
	wal, snap []byte // snap is nil when no compaction ran
	// snapOps is the number of ops the snapshot holds; walEnds[i] is
	// the WAL offset just past the frame of op snapOps+i.
	snapOps int
	walEnds []int64
}

// journalScript returns n ops over three keys that use every op kind.
func journalScript(n int) []Op {
	rng := rand.New(rand.NewSource(11))
	keys := [][]byte{[]byte("doc"), []byte("ledger"), []byte("t")}
	branches := []string{"master", "dev", "fix"}
	var ops []Op
	var last types.UID
	for i := 0; i < n; i++ {
		op := Op{
			Kind:   OpKind(1 + i%int(OpUnpin)),
			Key:    keys[rng.Intn(len(keys))],
			Branch: branches[rng.Intn(len(branches))],
			Name:   branches[rng.Intn(len(branches))],
			UID:    juid(100 + i),
		}
		switch op.Kind {
		case OpAddUntagged, OpReplaceUntagged:
			op.Bases = []types.UID{last, juid(rng.Intn(100 + i))}
		case OpPin, OpUnpin:
			op.Key, op.Branch, op.Name = nil, "", ""
			if op.Kind == OpUnpin {
				op.UID = last
			}
		}
		last = op.UID
		ops = append(ops, op)
	}
	return ops
}

// seedJournal records ops in a fresh journal that compacts after every
// `every` records (negative: never) and returns its files.
func seedJournal(f *testing.F, ops []Op, every int) journalSeed {
	dir := f.TempDir()
	j, err := OpenJournal(dir, JournalOptions{SnapshotEvery: every})
	if err != nil {
		f.Fatal(err)
	}
	var s journalSeed
	for i, op := range ops {
		if err := j.Record(op); err != nil {
			f.Fatal(err)
		}
		if st := j.Stats(); st.OpsSinceSnapshot == 0 {
			s.snapOps, s.walEnds = i+1, nil
		} else {
			s.walEnds = append(s.walEnds, st.WALBytes)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	if s.wal, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
		f.Fatal(err)
	}
	if s.snap, err = os.ReadFile(filepath.Join(dir, snapName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Fatal(err)
	}
	return s
}

// damageJournal applies the input's edits to the two files: each edit
// is an opcode byte and its operands, read from the input until it
// runs out; file 0 is the WAL, 1 the snapshot.
//
//	0 flip:      file, pos(2), mask         xor one byte
//	1 truncate:  file, pos(2)               cut the file there
//	2 overwrite: file, pos(2), n, bytes(n)  write bytes from the input
//	3 append:    file, n, bytes(n)          add bytes at the end
//
// Nothing copies a file's own bytes elsewhere. A WAL frame carries no
// sequence number, so a whole frame copied to a later offset replays
// again there; that is a damage the format cannot see, and the prefix
// property below does not hold for it.
func damageJournal(in []byte, files [2][]byte) [2][]byte {
	out := [2][]byte{append([]byte(nil), files[0]...), append([]byte(nil), files[1]...)}
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
		return p % (len(b) + 1)
	}
	for len(in) > 0 {
		op, file := next()%4, next()%2
		b := out[file]
		switch op {
		case 0:
			if p := pos(b); p < len(b) {
				b[p] ^= byte(next() | 1)
			}
		case 1:
			b = b[:pos(b)]
		case 2:
			p, n := pos(b), next()
			for i := 0; i < n && len(in) > 0; i++ {
				if p+i < len(b) {
					b[p+i] = byte(next())
				} else {
					b = append(b, byte(next()))
				}
			}
		case 3:
			n := next()
			for i := 0; i < n && len(in) > 0; i++ {
				b = append(b, byte(next()))
			}
		}
		out[file] = b
	}
	return out
}

// restoredState is what Restore hands the engine, in the snapshot
// encoding: equal states encode to equal bytes.
func restoredState(j *Journal) []byte {
	sp, pins := j.Restore()
	st := newJournalState()
	for _, k := range sp.Keys() {
		tb, _ := sp.Lookup([]byte(k))
		ts := st.table(k)
		for _, b := range tb.Tagged() {
			ts.set(b.Name, b.Head)
		}
		for _, u := range tb.Untagged() {
			ts.apply(Op{Kind: OpAddUntagged, UID: u})
		}
	}
	for _, u := range pins {
		st.pins[u] = struct{}{}
	}
	return encodeSnapshot(nil, &st)
}

// FuzzJournalOpen damages the metadata journal's files as the input
// says — flipped bytes, truncations, overwrites, appended bytes — and
// opens it. Open never panics. It fails only with ErrJournalCorrupt,
// and only when the snapshot was damaged. Otherwise Restore yields the
// state of some prefix of the recorded ops, with the journal's own
// apply as the oracle: never a head no prefix produces. That prefix
// holds every op whose WAL frame lies before the first damaged byte,
// and the journal takes a record and keeps it, over that prefix, across
// another reopen.
//
// The first input byte picks the layout: the ops in the WAL alone, or
// a snapshot of the first ops and the rest in the WAL.
func FuzzJournalOpen(f *testing.F) {
	ops := journalScript(20)
	seeds := [2]journalSeed{seedJournal(f, ops, -1), seedJournal(f, ops, 12)}
	if seeds[0].snap != nil || seeds[1].snap == nil || seeds[1].snapOps != 12 {
		f.Fatal("the seeded layouts are not WAL-only and snapshot+WAL")
	}
	// prefixes[k] is the state the first k ops produce.
	prefixes := make([][]byte, len(ops)+1)
	st := newJournalState()
	prefixes[0] = encodeSnapshot(nil, &st)
	for i, op := range ops {
		st.apply(string(op.Key), op)
		prefixes[i+1] = encodeSnapshot(nil, &st)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 2, 0x40})                      // the first frame's crc
	f.Add([]byte{0, 0, 0, 0, 4, 0x01})                      // the first frame's length
	f.Add([]byte{0, 0, 0, 0, 200, 0xff})                    // a byte of a middle frame
	f.Add([]byte{1, 1, 0, 1, 44})                           // cut the WAL mid-frame
	f.Add([]byte{1, 3, 0, 7, 1, 2, 3, 4, 5, 6, 7})          // garbage after the last frame
	f.Add([]byte{1, 0, 1, 0, 20, 0x10})                     // a byte of the snapshot body
	f.Add([]byte{1, 1, 1, 0, 6})                            // cut the snapshot header
	f.Add([]byte{1, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}) // zero the first frame's header
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 256 {
			return
		}
		layout := 0
		if len(in) > 0 {
			layout, in = int(in[0]%2), in[1:]
		}
		seed := seeds[layout]
		files := damageJournal(in, [2][]byte{seed.wal, seed.snap})
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), files[0], 0o644); err != nil {
			t.Fatal(err)
		}
		if seed.snap != nil || len(files[1]) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), files[1], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := OpenJournal(dir, JournalOptions{SnapshotEvery: -1})
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("open of a damaged journal: %v; want nil or ErrJournalCorrupt", err)
			}
			if bytes.Equal(files[1], seed.snap) {
				t.Fatalf("open failed with the snapshot intact: %v", err)
			}
			return
		}
		defer j.Close()
		got := restoredState(j)
		k := -1
		for i := len(prefixes) - 1; i >= 0; i-- {
			if bytes.Equal(got, prefixes[i]) {
				k = i
				break
			}
		}
		if k < 0 {
			t.Fatal("Restore yielded a state no prefix of the recorded ops produces")
		}
		if bytes.Equal(files[1], seed.snap) {
			intact := seed.snapOps
			for i, end := range seed.walEnds {
				if end > int64(len(files[0])) || !bytes.Equal(files[0][:end], seed.wal[:end]) {
					break
				}
				intact = seed.snapOps + i + 1
			}
			if k < intact {
				t.Fatalf("Restore yielded the state of %d ops; the first %d lie before the damage", k, intact)
			}
		}

		// The journal goes on from there: a record survives a reopen.
		extra := Op{Kind: OpFork, Key: []byte("after"), Branch: "damage", UID: juid(999)}
		if err := j.Record(extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir, JournalOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("reopen after a record: %v", err)
		}
		defer j2.Close()
		want := newJournalState()
		if err := decodeSnapshot(got, &want); err != nil {
			t.Fatal(err)
		}
		want.apply(string(extra.Key), extra)
		if !bytes.Equal(restoredState(j2), encodeSnapshot(nil, &want)) {
			t.Fatal("the record made after opening the damaged journal did not survive a reopen over the same state")
		}
	})
}
