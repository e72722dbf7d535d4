package postree

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// checkCursorAgainstOracle holds the cursor to decodeEntries on one
// payload: next yields the oracle's entries one for one, or both fail;
// seekKey and seekPos land where a scan of the decoded entries lands;
// every failure is a typed corruption error; nothing panics. On a
// payload the oracle rejects, the seeks may still answer from the
// intact entries before the damage, and must then agree with them.
func checkCursorAgainstOracle(t *testing.T, payload, key []byte, pos uint64) {
	t.Helper()
	want, oracleErr := decodeEntries(payload)

	var got []entry
	var err error
	for c := (indexCursor{p: payload}); ; {
		var e entry
		var ok bool
		if e, ok, err = c.next(); err != nil || !ok {
			if !c.done() && err == nil {
				t.Fatalf("next stopped at offset %d of %d without an error", c.off, len(payload))
			}
			break
		}
		got = append(got, e)
	}
	if (err == nil) != (oracleErr == nil) {
		t.Fatalf("next: error %v, oracle error %v", err, oracleErr)
	}
	if err != nil && !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("next: error %v does not wrap store.ErrCorrupt", err)
	}
	if err == nil {
		if len(got) != len(want) {
			t.Fatalf("next yielded %d entries, oracle %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i].key, want[i].key) || got[i].count != want[i].count || got[i].id != want[i].id {
				t.Fatalf("entry %d: cursor %+v, oracle %+v", i, got[i], want[i])
			}
		}
	}
	if ids, idErr := IndexChildIDs(payload); (idErr == nil) != (oracleErr == nil) {
		t.Fatalf("IndexChildIDs: error %v, oracle error %v", idErr, oracleErr)
	} else if idErr == nil {
		if len(ids) != len(want) || cap(ids) != len(want) {
			t.Fatalf("IndexChildIDs: len %d cap %d for %d entries", len(ids), cap(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i].id {
				t.Fatalf("IndexChildIDs[%d] differs from the oracle", i)
			}
		}
	}

	// seekKey: the first entry whose key is >= key.
	wantAt := -1
	for i, e := range got {
		if bytes.Compare(e.key, key) >= 0 {
			wantAt = i
			break
		}
	}
	c := indexCursor{p: payload}
	e, ok, serr := c.seekKey(key)
	switch {
	case wantAt >= 0:
		if serr != nil || !ok || e.id != got[wantAt].id || !bytes.Equal(e.key, got[wantAt].key) {
			t.Fatalf("seekKey(%q) = %+v ok=%v err=%v, want entry %d", key, e, ok, serr, wantAt)
		}
	case err != nil:
		if serr == nil || !errors.Is(serr, store.ErrCorrupt) {
			t.Fatalf("seekKey(%q) ran into the damage and returned ok=%v err=%v", key, ok, serr)
		}
	default:
		if ok || serr != nil {
			t.Fatalf("seekKey(%q) past every key = %+v ok=%v err=%v", key, e, ok, serr)
		}
	}

	// seekPos: the entry holding position pos and the elements before.
	wantAt = -1
	var before, left uint64 = 0, pos
	for i, e := range got {
		if left < e.count {
			wantAt = i
			break
		}
		left -= e.count
		before += e.count
	}
	c = indexCursor{p: payload}
	e, gotBefore, perr := c.seekPos(pos)
	if wantAt >= 0 {
		if perr != nil || e.id != got[wantAt].id || gotBefore != before {
			t.Fatalf("seekPos(%d) = %+v before=%d err=%v, want entry %d before=%d", pos, e, gotBefore, perr, wantAt, before)
		}
	} else if perr == nil || !errors.Is(perr, store.ErrCorrupt) {
		// Past the counts of an intact node, or into the damage: the
		// position was promised by a parent, so both are corruption.
		t.Fatalf("seekPos(%d) past the node returned %+v err=%v", pos, e, perr)
	}
}

// randomIndexPayload encodes n random entries and, one time in three,
// damages the result: a cut, a flipped byte, or an absurd key length.
func randomIndexPayload(rng *rand.Rand) []byte {
	var p []byte
	for n := rng.Intn(12); n > 0; n-- {
		e := entry{count: uint64(rng.Intn(1000))}
		if rng.Intn(4) > 0 {
			e.key = make([]byte, rng.Intn(20))
			rng.Read(e.key)
		}
		rng.Read(e.id[:])
		p = appendEntry(p, e)
	}
	if len(p) > 0 {
		switch rng.Intn(9) {
		case 0:
			p = p[:rng.Intn(len(p))]
		case 1:
			p[rng.Intn(len(p))] ^= byte(1 + rng.Intn(255))
		case 2:
			copy(p, []byte{0xff, 0xff, 0xff, 0x7f})
		}
	}
	return p
}

func TestIndexCursorEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 5000; i++ {
		p := randomIndexPayload(rng)
		key := make([]byte, rng.Intn(20))
		rng.Read(key)
		if want, err := decodeEntries(p); err == nil && len(want) > 0 && rng.Intn(2) == 0 {
			key = want[rng.Intn(len(want))].key // an exact hit
		}
		checkCursorAgainstOracle(t, p, key, uint64(rng.Intn(6000)))
	}
}

func FuzzIndexNode(f *testing.F) {
	var id chunk.ID
	id[0] = 7
	node := appendEntry(nil, entry{key: []byte("apple"), count: 3, id: id})
	node = appendEntry(node, entry{key: []byte("pear"), count: 5, id: id})
	f.Add(node, []byte("banana"), uint64(4))
	f.Add(node[:len(node)-1], []byte("zebra"), uint64(7))
	f.Add(appendEntry(nil, entry{count: 9, id: id}), []byte{}, uint64(9))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, []byte("k"), uint64(0))
	f.Add([]byte{}, []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, payload, key []byte, pos uint64) {
		checkCursorAgainstOracle(t, payload, key, pos)
	})
}
