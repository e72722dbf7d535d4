package branch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"forkbase/internal/types"
)

// seededState folds a fixed random script into a journal state: keys
// with one to four tagged branches, several untagged heads and pins,
// all with random uids so every byte position decides some order.
func seededState() journalState {
	rng := rand.New(rand.NewSource(36))
	ruid := func() types.UID {
		var u types.UID
		rng.Read(u[:])
		return u
	}
	st := newJournalState()
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%03d", rng.Intn(150)))
		op := Op{Key: key, Branch: []string{"master", "dev", "fix", "b"}[rng.Intn(4)], UID: ruid()}
		switch rng.Intn(6) {
		case 0, 1:
			op.Kind = OpUpdateTagged
		case 2:
			op.Kind = OpAddUntagged
		case 3:
			op.Kind, op.Bases = OpReplaceUntagged, []types.UID{ruid()}
		case 4:
			op.Kind, op.Name = OpRename, "renamed"
		case 5:
			op.Kind, op.Key, op.Branch = OpPin, nil, ""
		}
		st.apply(string(op.Key), op)
	}
	return st
}

// TestSnapshotBytesUnchanged pins the snapshot encoding of a seeded
// state: untagged heads and pins are sorted by bytes, as they were when
// they were sorted by hex string, so the file format did not move.
func TestSnapshotBytesUnchanged(t *testing.T) {
	st := seededState()
	var forked, conflicted bool
	for _, ts := range st.keys {
		nt, nu := ts.count()
		forked, conflicted = forked || nt > 1, conflicted || nu > 1
	}
	if !forked || !conflicted || len(st.pins) < 2 {
		t.Fatal("the seeded state sorts nothing")
	}
	sum := sha256.Sum256(encodeSnapshot(nil, &st))
	const want = "dec3fc8ad849d717a9da431ac3e2b55f7f8328ae1dcc07ecd1de7c8b89639e77"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot of the seeded state hashes to %s, want %s", got, want)
	}
}

// tableModel is the reference a Table is checked against: the TB-table
// and UB-table as plain maps.
type tableModel struct {
	tagged   map[string]types.UID
	untagged map[types.UID]bool
}

// modelNames and modelUID draw from small sets on purpose, so branch
// names and heads collide often.
var modelNames = []string{"master", "dev", "fix"}

func modelUID(b byte) types.UID { return juid(1 + int(b)%6) }

// runTableModel drives two journaled tables with the op script in
// script and a tableModel per key beside them, checking every read
// after every op; at the end the journal, reopened with and without a
// Compact, must restore the same tables.
func runTableModel(t *testing.T, script []byte) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	models := map[string]*tableModel{}
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	for len(script) > 0 {
		code := next()
		key := fmt.Sprintf("k%d", code>>7)
		tb := sp.Table([]byte(key))
		m := models[key]
		if m == nil {
			m = &tableModel{tagged: map[string]types.UID{}, untagged: map[types.UID]bool{}}
			models[key] = m
		}
		name, u := modelNames[int(next())%len(modelNames)], modelUID(next())
		var err, want error
		switch code & 7 {
		case 0: // unguarded update
			err = tb.UpdateTagged(name, u, nil)
			m.tagged[name] = u
		case 1: // guarded update; an odd byte guards on the current head
			g := modelUID(next())
			if cur, ok := m.tagged[name]; ok && g != cur && next()&1 == 1 {
				g = cur
			}
			err = tb.UpdateTagged(name, u, &g)
			switch cur, ok := m.tagged[name]; {
			case !ok:
				want = ErrBranchNotFound
			case cur != g:
				want = ErrGuardFailed
			default:
				m.tagged[name] = u
			}
		case 2: // update inside a batch scope
			b := j.Begin()
			err = tb.UpdateTaggedIn(b, name, u)
			if eerr := b.End(); eerr != nil {
				t.Fatal(eerr)
			}
			m.tagged[name] = u
		case 3:
			err = tb.Fork(name, u)
			if _, ok := m.tagged[name]; ok {
				want = ErrBranchExists
			} else {
				m.tagged[name] = u
			}
		case 4:
			to := modelNames[int(next())%len(modelNames)]
			err = tb.Rename(name, to)
			head, ok := m.tagged[name]
			if _, taken := m.tagged[to]; !ok {
				want = ErrBranchNotFound
			} else if taken {
				want = ErrBranchExists
			} else {
				delete(m.tagged, name)
				m.tagged[to] = head
			}
		case 5:
			err = tb.Remove(name)
			if _, ok := m.tagged[name]; !ok {
				want = ErrBranchNotFound
			} else {
				delete(m.tagged, name)
			}
		case 6:
			bases := []types.UID{modelUID(next()), modelUID(next())}[:next()%3]
			err = tb.AddUntagged(u, bases)
			if !m.untagged[u] {
				m.untagged[u] = true
				for _, b := range bases {
					delete(m.untagged, b)
				}
			}
		case 7:
			merged := []types.UID{modelUID(next()), modelUID(next())}[:next()%3]
			err = tb.ReplaceUntagged(u, merged)
			for _, b := range merged {
				delete(m.untagged, b)
			}
			m.untagged[u] = true
		}
		if !errors.Is(err, want) {
			t.Fatalf("op %d on %s %q: err %v, want %v", code&7, key, name, err, want)
		}
		checkTable(t, tb, m)
	}
	want := dumpModels(models)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, compact := range []bool{false, true} {
		j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
		if got := dumpSpace(sp); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored (compacted before: %v):\n got %v\nwant %v", compact, got, want)
		}
		if compact {
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A third open reads the snapshot the last pass cut.
	_, sp, _ = openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	if got := dumpSpace(sp); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored from snapshot:\n got %v\nwant %v", got, want)
	}
}

// checkTable compares every read of tb with the model.
func checkTable(t *testing.T, tb *Table, m *tableModel) {
	t.Helper()
	for _, name := range modelNames {
		head, ok := tb.Head(name)
		if wantHead, wantOK := m.tagged[name]; head != wantHead || ok != wantOK {
			t.Fatalf("Head(%q) = %v %v, want %v %v", name, head, ok, wantHead, wantOK)
		}
	}
	for b := byte(0); b < 6; b++ {
		u := modelUID(b)
		want := m.untagged[u]
		for _, head := range m.tagged {
			want = want || head == u
		}
		if got := tb.IsHead(u); got != want {
			t.Fatalf("IsHead(%v) = %v, want %v", u, got, want)
		}
	}
	if got, want := tb.Tagged(), m.taggedList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tagged() = %v, want %v", got, want)
	}
	if got, want := tb.Untagged(), m.untaggedList(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Untagged() = %v, want %v", got, want)
	}
}

func (m *tableModel) taggedList() []TaggedBranch {
	out := []TaggedBranch{}
	for name, head := range m.tagged {
		out = append(out, TaggedBranch{Name: name, Head: head})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (m *tableModel) untaggedList() []types.UID {
	out := []types.UID{}
	for u := range m.untagged {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// dumpSpace and dumpModels render the non-empty tables comparably.
func dumpSpace(sp *Space) map[string]string {
	out := map[string]string{}
	for _, k := range sp.Keys() {
		tb, _ := sp.Lookup([]byte(k))
		if s := fmt.Sprint(tb.Tagged(), tb.Untagged()); s != "[] []" {
			out[k] = s
		}
	}
	return out
}

func dumpModels(models map[string]*tableModel) map[string]string {
	out := map[string]string{}
	for k, m := range models {
		if s := fmt.Sprint(m.taggedList(), m.untaggedList()); s != "[] []" {
			out[k] = s
		}
	}
	return out
}

// TestTableMatchesModel runs seeded op scripts through runTableModel.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			script := make([]byte, 1200)
			rand.New(rand.NewSource(seed)).Read(script)
			runTableModel(t, script)
		})
	}
}

// FuzzTableOps runs arbitrary op scripts through runTableModel.
func FuzzTableOps(f *testing.F) {
	// Fork dev beside master, remove master, move dev: dev must move
	// where it lives, not land in the freed inline slot as well.
	f.Add([]byte{0, 0, 1, 3, 1, 2, 5, 0, 0, 0, 1, 3})
	f.Add([]byte{6, 0, 1, 2, 3, 2, 7, 0, 4, 1, 2, 1, 0x80, 2, 2, 4, 0x80, 2, 1, 5, 0x80, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runTableModel(t, script)
	})
}

// TestTableBytesPerKey pins what a single-branch key costs in live
// heap: its Table, its key string and its share of the Space's map,
// and the same through a journal's shadow state. With the branch held
// inline no map is made per key.
func TestTableBytesPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds shadow memory to every allocation")
	}
	keys := make([][]byte, 100_000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	sp := NewSpace()
	perKey(t, "Space.Table + UpdateTagged", len(keys), func() {
		for i, k := range keys {
			if err := sp.Table(k).UpdateTagged(DefaultBranch, juid(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	st := newJournalState()
	perKey(t, "journal shadow state", 10_000, func() {
		for i, k := range keys[:10_000] {
			st.apply(string(k), Op{Kind: OpUpdateTagged, Branch: DefaultBranch, UID: juid(i)})
		}
	})
	runtime.KeepAlive(sp)
	runtime.KeepAlive(st)
	runtime.KeepAlive(keys)
}

// perKey runs fill and fails if the live heap it leaves behind exceeds
// 200 bytes or 2 objects per key. The objects are the Table (or heads)
// and the key string; the map's own blocks, shared by all its keys,
// add well under a hundredth of an object per key.
func perKey(t *testing.T, what string, n int, fill func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	o := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(n)
	t.Logf("%s: %.1f B and %.2f objects per key", what, b, o)
	if b > 200 || o > 2.01 {
		t.Fatalf("%s: %.1f B and %.2f objects per key, want at most 200 B and 2", what, b, o)
	}
}
