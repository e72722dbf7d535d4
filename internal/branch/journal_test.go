package branch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"forkbase/internal/obs"
	"forkbase/internal/types"
)

// juid builds a distinct test uid from an integer (the branch_test
// helper uid() only covers a byte's worth).
func juid(n int) types.UID {
	var u types.UID
	u[0] = byte(n)
	u[1] = byte(n >> 8)
	u[2] = byte(n >> 16)
	return u
}

// openTestJournal opens a journal over dir and restores its state.
func openTestJournal(t *testing.T, dir string, opts JournalOptions) (*Journal, *Space, []types.UID) {
	t.Helper()
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, pins := j.Restore()
	return j, sp, pins
}

// stateOf flattens a Space into comparable maps.
func stateOf(sp *Space) map[string]map[string]types.UID {
	out := make(map[string]map[string]types.UID)
	for _, k := range sp.Keys() {
		tb, _ := sp.Lookup([]byte(k))
		m := make(map[string]types.UID)
		for _, b := range tb.Tagged() {
			m[b.Name] = b.Head
		}
		for i, u := range tb.Untagged() {
			m[fmt.Sprintf("~untagged%d", i)] = u
		}
		out[k] = m
	}
	return out
}

func requireSameState(t *testing.T, want, got *Space, wantPins, gotPins []types.UID) {
	t.Helper()
	if w, g := stateOf(want), stateOf(got); !reflect.DeepEqual(w, g) {
		t.Fatalf("recovered space diverged:\nwant %v\ngot  %v", w, g)
	}
	if len(wantPins) != 0 || len(gotPins) != 0 {
		if !reflect.DeepEqual(wantPins, gotPins) {
			t.Fatalf("recovered pins diverged: want %v got %v", wantPins, gotPins)
		}
	}
}

// TestJournalRoundTrip covers every op kind: mutations applied to a
// journaled Space must be identical after close + reopen + Restore.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{})

	tb := sp.Table([]byte("doc"))
	if err := tb.UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Fork("feature", juid(1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateTagged("feature", juid(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Rename("feature", "release"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Fork("scratch", juid(2)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Remove("scratch"); err != nil {
		t.Fatal(err)
	}
	ub := sp.Table([]byte("conflicted"))
	if err := ub.AddUntagged(juid(10), nil); err != nil {
		t.Fatal(err)
	}
	if err := ub.AddUntagged(juid(11), []types.UID{juid(10)}); err != nil {
		t.Fatal(err)
	}
	if err := ub.AddUntagged(juid(12), []types.UID{juid(10)}); err != nil {
		t.Fatal(err)
	}
	if err := ub.ReplaceUntagged(juid(13), []types.UID{juid(11), juid(12)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Op{Kind: OpPin, UID: juid(40)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Op{Kind: OpPin, UID: juid(41)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Op{Kind: OpUnpin, UID: juid(40)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, gotPins := openTestJournal(t, dir, JournalOptions{})
	requireSameState(t, sp, got, []types.UID{juid(41)}, gotPins)
	tb2, _ := got.Lookup([]byte("doc"))
	if h, _ := tb2.Head("release"); h != juid(2) {
		t.Fatalf("renamed branch head = %v, want %v", h, juid(2))
	}
	if _, ok := tb2.Head("feature"); ok {
		t.Fatal("rename left the old name behind")
	}
	if _, ok := tb2.Head("scratch"); ok {
		t.Fatal("removed branch recovered")
	}
	ub2, _ := got.Lookup([]byte("conflicted"))
	if heads := ub2.Untagged(); len(heads) != 1 || heads[0] != juid(13) {
		t.Fatalf("untagged heads after replace = %v, want [%v]", heads, juid(13))
	}
}

// TestJournalRenameRemoveReplaceRoundTrip reopens after EACH of the
// three table-shrinking ops, proving none of them depends on state the
// snapshot or WAL failed to carry.
func TestJournalRenameRemoveReplaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{})
	tb := sp.Table([]byte("k"))
	for _, step := range []func() error{
		func() error { return tb.UpdateTagged("a", juid(1), nil) },
		func() error { return tb.Fork("b", juid(1)) },
		func() error { return tb.Rename("a", "c") },
		func() error { return tb.Remove("b") },
		func() error { return tb.AddUntagged(juid(5), nil) },
		func() error { return tb.AddUntagged(juid(6), []types.UID{juid(5)}) },
		func() error { return tb.AddUntagged(juid(7), []types.UID{juid(5)}) },
		func() error { return tb.ReplaceUntagged(juid(8), []types.UID{juid(6), juid(7)}) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		j.Close()
		var got *Space
		var gotPins []types.UID
		j, got, gotPins = openTestJournal(t, dir, JournalOptions{})
		requireSameState(t, sp, got, nil, gotPins)
		// Continue mutating through the reopened journal's space so
		// each step also proves the WAL append point survived reopen.
		sp = got
		tb, _ = got.Lookup([]byte("k"))
	}
	j.Close()
}

// TestJournalSnapshotCompaction proves the WAL does not grow without
// bound: with a small cadence the journal folds itself into meta.snap
// and truncates, and recovery from snapshot+tail equals full replay.
func TestJournalSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: 16})
	tb := sp.Table([]byte("k"))
	for i := 0; i < 200; i++ {
		if err := tb.UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.SnapshotBytes == 0 {
		t.Fatal("no snapshot written despite cadence")
	}
	if st.OpsSinceSnapshot >= 16 {
		t.Fatalf("WAL not truncated: %d ops pending", st.OpsSinceSnapshot)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil || fi.Size() != st.WALBytes {
		t.Fatalf("wal size %v vs stats %d (%v)", fi, st.WALBytes, err)
	}
	j.Close()
	_, got, gotPins := openTestJournal(t, dir, JournalOptions{SnapshotEvery: 16})
	requireSameState(t, sp, got, nil, gotPins)
	if h, _ := mustLookup(t, got, "k").Head("master"); h != juid(199) {
		t.Fatalf("head after compacted recovery = %v", h)
	}
}

func mustLookup(t *testing.T, sp *Space, key string) *Table {
	t.Helper()
	tb, ok := sp.Lookup([]byte(key))
	if !ok {
		t.Fatalf("key %q lost", key)
	}
	return tb
}

// TestJournalTornTail truncates the WAL at every byte offset: recovery
// must never fail, and must land on exactly the state some prefix of
// the op sequence produced.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	tb := sp.Table([]byte("k"))
	heads := map[types.UID]int{} // uid -> op index whose state it is
	const ops = 40
	for i := 0; i < ops; i++ {
		if err := tb.UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
		heads[juid(i)] = i
	}
	j.Close()
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(full)); cut += 7 {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, _ := openTestJournal(t, torn, JournalOptions{SnapshotEvery: -1})
		if tb2, ok := got.Lookup([]byte("k")); ok {
			h, ok := tb2.Head("master")
			if !ok {
				t.Fatalf("cut@%d: branch vanished but key survived", cut)
			}
			if _, known := heads[h]; !known {
				t.Fatalf("cut@%d: head %v is no prefix state", cut, h)
			}
		} else if cut >= 16 { // at least one full frame present
			// A missing key is only legal while the first record is torn.
			frame := int64(8) + frameLen(t, full)
			if cut >= frame {
				t.Fatalf("cut@%d: key lost after first intact record", cut)
			}
		}
		// The truncated journal must keep accepting appends.
		tb2 := got.Table([]byte("k"))
		if err := tb2.UpdateTagged("post", juid(999), nil); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		_, again, _ := openTestJournal(t, torn, JournalOptions{SnapshotEvery: -1})
		if h, _ := mustLookup(t, again, "k").Head("post"); h != juid(999) {
			t.Fatalf("cut@%d: append after torn recovery lost", cut)
		}
	}
}

// frameLen returns the body length of the first WAL frame.
func frameLen(t *testing.T, wal []byte) int64 {
	t.Helper()
	if len(wal) < 8 {
		t.Fatal("wal shorter than a frame header")
	}
	return int64(uint32(wal[4]) | uint32(wal[5])<<8 | uint32(wal[6])<<16 | uint32(wal[7])<<24)
}

// TestJournalCompactionCrash kills the journal at every compaction
// hook — tmp snapshot fsynced, snapshot renamed, WAL truncated — and
// reopens the directory as left at that instant: the recovered state
// must equal the full pre-compaction state every time, whichever mix
// of old/new snapshot and full/empty WAL the crash left behind.
func TestJournalCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	tb := sp.Table([]byte("k"))
	for i := 0; i < 30; i++ {
		if err := tb.UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
		if err := tb.UpdateTagged(fmt.Sprintf("b%d", i%5), juid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Record(Op{Kind: OpPin, UID: juid(7)}); err != nil {
		t.Fatal(err)
	}

	var snaps []string
	var when []string
	j.crashHook = func(event string) {
		snaps = append(snaps, snapshotDir(t, dir))
		when = append(when, event)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compact again with further ops in between: the second pass
	// crashes over an EXISTING snapshot, the rename-over case.
	if err := tb.UpdateTagged("master", juid(100), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.crashHook = nil
	if len(snaps) != 6 {
		t.Fatalf("expected 6 crash points, got %d (%v)", len(snaps), when)
	}
	for i, d := range snaps {
		_, got, gotPins := openTestJournal(t, d, JournalOptions{})
		wantHead := juid(29)
		if i >= 3 { // second compaction's crash points include the last op
			wantHead = juid(100)
		}
		if h, _ := mustLookup(t, got, "k").Head("master"); h != wantHead {
			t.Fatalf("%s[%d]: master = %v, want %v", when[i], i, h, wantHead)
		}
		if len(gotPins) != 1 || gotPins[0] != juid(7) {
			t.Fatalf("%s[%d]: pins = %v", when[i], i, gotPins)
		}
		for b := 0; b < 5; b++ {
			if _, ok := mustLookup(t, got, "k").Head(fmt.Sprintf("b%d", b)); !ok {
				t.Fatalf("%s[%d]: branch b%d lost", when[i], i, b)
			}
		}
	}
}

// TestJournalCompactionCrashUntagged covers the crash window between
// the snapshot rename and the WAL truncate for UB-table ops: replaying
// AddUntagged records already folded into the snapshot must not
// resurrect the bases they consumed.
func TestJournalCompactionCrashUntagged(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	tb := sp.Table([]byte("k"))
	if err := tb.AddUntagged(juid(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddUntagged(juid(2), []types.UID{juid(1)}); err != nil {
		t.Fatal(err)
	}
	var renamed string
	j.crashHook = func(event string) {
		if event == "snap-renamed" {
			// New snapshot in place, WAL still holding both records.
			renamed = snapshotDir(t, dir)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if renamed == "" {
		t.Fatal("snap-renamed hook never fired")
	}
	_, got, _ := openTestJournal(t, renamed, JournalOptions{})
	heads := mustLookup(t, got, "k").Untagged()
	if len(heads) != 1 || heads[0] != juid(2) {
		t.Fatalf("replay over snapshot resurrected a consumed base: %v, want [%v]", heads, juid(2))
	}
}

// TestJournalBrokenSelfHeals: a journal poisoned by an unrollbackable
// append failure (partial frame stuck in the WAL) must recover on the
// next Record via snapshot+truncate — the shadow state kept tracking
// every mutation, so nothing is lost once the disk cooperates.
func TestJournalBrokenSelfHeals(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	tb := sp.Table([]byte("k"))
	if err := tb.UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	// Simulate the poisoned state: a partial frame in the file past the
	// last intact record, with the rollback having failed.
	j.mu.Lock()
	if _, err := j.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		j.mu.Unlock()
		t.Fatal(err)
	}
	j.broken = errors.New("simulated append failure")
	j.mu.Unlock()
	// The next mutation self-heals: its op (and the backlog) land in a
	// fresh snapshot, the damaged WAL is truncated.
	if err := tb.UpdateTagged("master", juid(2), nil); err != nil {
		t.Fatalf("record after self-heal: %v", err)
	}
	st := j.Stats()
	if st.SnapshotBytes == 0 || st.WALBytes != 0 {
		t.Fatalf("self-heal did not compact: %+v", st)
	}
	if err := tb.UpdateTagged("master", juid(3), nil); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, got, _ := openTestJournal(t, dir, JournalOptions{})
	if h, _ := mustLookup(t, got, "k").Head("master"); h != juid(3) {
		t.Fatalf("head after self-heal recovery = %v, want %v", h, juid(3))
	}
}

// TestJournalCorruptSnapshot proves a rotted snapshot surfaces as
// ErrJournalCorrupt instead of silently recovering a wrong state.
func TestJournalCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{})
	if err := sp.Table([]byte("k")).UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, snapName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, JournalOptions{}); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("corrupt snapshot opened: %v", err)
	}
}

// snapshotDir copies every file of dir into a fresh temp dir,
// mirroring what a kill at this instant leaves on disk.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// --- batch scopes ----------------------------------------------------

// walFrames returns the end offset of every whole frame in a WAL image.
func walFrames(t *testing.T, wal []byte) []int64 {
	t.Helper()
	var ends []int64
	for off := int64(0); off+8 <= int64(len(wal)); {
		off += 8 + frameLen(t, wal[off:])
		if off > int64(len(wal)) {
			break
		}
		ends = append(ends, off)
	}
	return ends
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalBatchRoundTrip: records of a batch scope are pending —
// applied, counted, but not in the file — until End, which moves them
// there under one barrier and one write, in apply order; a reopen
// replays them. SnapshotEvery counts the records, not the flush.
func TestJournalBatchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	barriers := 0
	opts := JournalOptions{SnapshotEvery: -1, Barrier: func() error { barriers++; return nil }}
	j, sp, _ := openTestJournal(t, dir, opts)
	if err := sp.Table([]byte("solo")).UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	before, barriers0 := walSize(t, dir), barriers

	b := j.Begin()
	const n = 30
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%02d", i%7)) // several records per key
		if err := sp.Table(key).UpdateTaggedIn(b, "master", juid(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := walSize(t, dir); got != before {
		t.Fatalf("WAL grew to %d before End (was %d): batch records must stay pending", got, before)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if barriers != barriers0+1 {
		t.Fatalf("batch of %d records ran %d barriers, want 1", n, barriers-barriers0)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if frames := walFrames(t, wal); len(frames) != 1+n || frames[len(frames)-1] != int64(len(wal)) {
		t.Fatalf("WAL holds %d whole frames in %d bytes, want %d", len(frames), len(wal), 1+n)
	}
	if st := j.Stats(); st.OpsSinceSnapshot != 1+n || st.WALBytes != int64(len(wal)) {
		t.Fatalf("stats after batch: %+v", st)
	}
	if err := b.End(); err != nil { // nothing pending: a no-op
		t.Fatal(err)
	}
	// A compaction inside an open scope flushes first, barrier included:
	// its snapshot names the pending heads.
	if err := sp.Table([]byte("late")).UpdateTaggedIn(b, "master", juid(7)); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if barriers != barriers0+2 {
		t.Fatalf("Compact with a record pending ran %d barriers, want 1", barriers-barriers0-1)
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.WALBytes != 0 || st.OpsSinceSnapshot != 0 {
		t.Fatalf("stats after compaction inside a scope: %+v", st)
	}
	j.Close()
	j2, got, _ := openTestJournal(t, dir, opts)
	requireSameState(t, sp, got, nil, nil)
	j2.Close()

	// The compaction cadence sees every record of a batch.
	dir = t.TempDir()
	j, sp, _ = openTestJournal(t, dir, JournalOptions{SnapshotEvery: 5})
	b = j.Begin()
	for i := 0; i < 12; i++ {
		if err := sp.Table([]byte("k")).UpdateTaggedIn(b, "master", juid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.SnapshotBytes == 0 || st.WALBytes != 0 || st.OpsSinceSnapshot != 0 {
		t.Fatalf("12 batched records under SnapshotEvery=5 did not compact: %+v", st)
	}
	j.Close()
	_, got, _ = openTestJournal(t, dir, JournalOptions{})
	requireSameState(t, sp, got, nil, nil)

	// A nil journal begins the nil scope, which records through the
	// table's own sink (here: none) and ends as a no-op.
	var none *Journal
	nb := none.Begin()
	if err := NewTable().UpdateTaggedIn(nb, "master", juid(1)); err != nil {
		t.Fatal(err)
	}
	if err := nb.End(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalBatchTornWrite cuts the single write of a multi-record
// batch at every byte offset: recovery lands on exactly the records
// whose frames are whole — the longest frame-exact prefix.
func TestJournalBatchTornWrite(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	if err := sp.Table([]byte("pre")).UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	start := walSize(t, dir)
	const n = 12
	b := j.Begin()
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%4))
		if err := sp.Table(key).UpdateTaggedIn(b, fmt.Sprintf("b%d", i%3), juid(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	frames := walFrames(t, full)
	if len(frames) != 1+n {
		t.Fatalf("%d frames, want %d", len(frames), 1+n)
	}
	for cut := start; cut <= int64(len(full)); cut++ {
		whole := 0 // batch records with a whole frame below the cut
		for _, end := range frames[1:] {
			if end <= cut {
				whole++
			}
		}
		want := NewSpace()
		want.Table([]byte("pre")).UpdateTagged("master", juid(1), nil)
		for i := 0; i < whole; i++ {
			want.Table([]byte(fmt.Sprintf("key-%d", i%4))).UpdateTagged(fmt.Sprintf("b%d", i%3), juid(10+i), nil)
		}
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, _ := openTestJournal(t, torn, JournalOptions{SnapshotEvery: -1})
		if w, g := stateOf(want), stateOf(got); !reflect.DeepEqual(w, g) {
			t.Fatalf("cut@%d (%d whole batch frames): recovered %v, want %v", cut, whole, g, w)
		}
		if st := j2.Stats(); st.WALBytes != frames[whole] {
			t.Fatalf("cut@%d: append point %d, want the end of frame %d at %d", cut, st.WALBytes, whole, frames[whole])
		}
		j2.Close()
	}
}

// failingWAL passes writes through until armed; the armed write lands
// only its first keep bytes and fails, and Truncate fails too when
// stuck is set — the disk that tears a frame and then refuses the
// rollback.
type failingWAL struct {
	*os.File
	armed bool
	keep  int
	stuck bool
}

func (f *failingWAL) Write(p []byte) (int, error) {
	if !f.armed {
		return f.File.Write(p)
	}
	f.armed = false
	n, _ := f.File.Write(p[:f.keep])
	return n, errors.New("injected write failure")
}

func (f *failingWAL) Truncate(size int64) error {
	if f.stuck {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// TestJournalBatchWriteFailure: a batch write that fails part-way is
// rolled back to the last intact frame, End reports it, the journal
// keeps appending, and the lost records — still in the shadow state —
// reach disk with the next snapshot. When the rollback fails as well,
// the next flush self-heals by compacting, as for a single record.
func TestJournalBatchWriteFailure(t *testing.T) {
	for _, stuck := range []bool{false, true} {
		t.Run(fmt.Sprintf("rollbackFails=%v", stuck), func(t *testing.T) {
			dir := t.TempDir()
			j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
			tb := sp.Table([]byte("k"))
			if err := tb.UpdateTagged("master", juid(1), nil); err != nil {
				t.Fatal(err)
			}
			intact := walSize(t, dir)
			fw := &failingWAL{File: j.f.(*os.File), armed: true, keep: 100, stuck: stuck}
			j.mu.Lock()
			j.f = fw
			j.mu.Unlock()

			b := j.Begin()
			for i := 0; i < 5; i++ {
				if err := tb.UpdateTaggedIn(b, fmt.Sprintf("b%d", i), juid(10+i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.End(); err == nil {
				t.Fatal("End swallowed the injected write failure")
			}
			if !stuck {
				if got := walSize(t, dir); got != intact {
					t.Fatalf("WAL is %d bytes after the failed batch, want the rollback to %d", got, intact)
				}
			}
			fw.stuck = false // the disk cooperates again
			if err := tb.UpdateTagged("after", juid(99), nil); err != nil {
				t.Fatalf("record after the failed batch: %v", err)
			}
			if stuck {
				if st := j.Stats(); st.SnapshotBytes == 0 || st.WALBytes != 0 {
					t.Fatalf("self-heal did not compact: %+v", st)
				}
			} else {
				// What a crash here would recover: every frame whole, the
				// batch gone, the later record present.
				_, crash, _ := openTestJournal(t, snapshotDir(t, dir), JournalOptions{SnapshotEvery: -1})
				ct := mustLookup(t, crash, "k")
				if _, ok := ct.Head("b0"); ok {
					t.Fatal("a record of the failed batch survived the rollback")
				}
				if h, _ := ct.Head("after"); h != juid(99) {
					t.Fatal("record appended after the rollback is unreadable: a torn frame was left behind")
				}
				if err := j.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()
			_, got, _ := openTestJournal(t, dir, JournalOptions{})
			requireSameState(t, sp, got, nil, nil)
		})
	}
}

// TestJournalBatchFailureReachesOtherScope: a scope whose records were
// carried to the file — and lost — by another writer's flush learns of
// it at its own End.
func TestJournalBatchFailureReachesOtherScope(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: -1})
	j.mu.Lock()
	j.f = &failingWAL{File: j.f.(*os.File), armed: true}
	j.mu.Unlock()
	b := j.Begin()
	if err := sp.Table([]byte("batched")).UpdateTaggedIn(b, "master", juid(1)); err != nil {
		t.Fatal(err)
	}
	// A single record from elsewhere flushes the scope's prefix with it.
	if err := sp.Table([]byte("single")).UpdateTagged("master", juid(2), nil); err == nil {
		t.Fatal("Record swallowed the injected write failure")
	}
	if err := b.End(); err == nil {
		t.Fatal("End reported success for a record another flush had lost")
	}
	if err := j.Begin().End(); err != nil {
		t.Fatalf("a scope begun after the loss inherited it: %v", err)
	}
	j.Close()
}

// TestJournalBatchConcurrentRecords: single Records on a hot key land
// while scopes that write the same key are open. Each flushes the
// pending prefix with it, so WAL order stays apply order and a replay
// ends on the in-memory heads. Run under -race.
func TestJournalBatchConcurrentRecords(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{SnapshotEvery: 64, Barrier: func() error { return nil }})
	hot := sp.Table([]byte("hot"))
	const writers, rounds = 3, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) { // scopes: the hot key plus keys of their own
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b := j.Begin()
				for i := 0; i < 4; i++ {
					own := sp.Table([]byte(fmt.Sprintf("w%d-%d", w, i)))
					if err := own.UpdateTaggedIn(b, "master", juid(w<<16|r<<4|i)); err != nil {
						t.Error(err)
					}
					if err := hot.UpdateTaggedIn(b, "master", juid(w<<16|r<<4|i)); err != nil {
						t.Error(err)
					}
				}
				if err := b.End(); err != nil {
					t.Error(err)
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) { // single records on the hot key
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				if err := hot.UpdateTagged("master", juid(1<<20|w<<16|r), nil); err != nil {
					t.Error(err)
				}
				if r%16 == 0 {
					if err := hot.Fork(fmt.Sprintf("f%d-%d", w, r), juid(r)); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	_, got, _ := openTestJournal(t, dir, JournalOptions{})
	requireSameState(t, sp, got, nil, nil)
}

// TestJournalBatchOneFsync: under Sync a batch pays one fsync, and the
// fsync histogram sees one sample per flush.
func TestJournalBatchOneFsync(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("fsync", "")
	samples := func() int64 { return reg.Snapshot()[0].Value }
	j, sp, _ := openTestJournal(t, t.TempDir(), JournalOptions{Sync: true, SnapshotEvery: -1, FsyncHist: hist})
	defer j.Close()
	if err := sp.Table([]byte("k")).UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	if got := samples(); got != 1 {
		t.Fatalf("single record: %d fsync samples, want 1", got)
	}
	b := j.Begin()
	for i := 0; i < 20; i++ {
		if err := sp.Table([]byte(fmt.Sprintf("k%d", i))).UpdateTaggedIn(b, "master", juid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if got := samples(); got != 2 {
		t.Fatalf("batch of 20: %d fsync samples in total, want 2 (one per flush)", got)
	}
}

// TestJournalDefaultCadenceProportional: under the default cadence a
// compaction waits for DefaultSnapshotEvery records and for the WAL to
// reach the last snapshot's size, so a large state is not rewritten
// for every few records; an explicit SnapshotEvery keeps counting
// records alone.
func TestJournalDefaultCadenceProportional(t *testing.T) {
	dir := t.TempDir()
	j, sp, _ := openTestJournal(t, dir, JournalOptions{})
	long := bytes.Repeat([]byte("k"), 200)
	for i := 0; i < DefaultSnapshotEvery; i++ {
		key := append(binary.LittleEndian.AppendUint32(nil, uint32(i)), long...)
		if err := sp.Table(key).UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := j.Stats()
	if snap.OpsSinceSnapshot != 0 || snap.SnapshotBytes == 0 {
		t.Fatalf("the first %d records did not compact: %+v", DefaultSnapshotEvery, snap)
	}
	tb := sp.Table([]byte("k"))
	prev := j.Stats()
	for i := 1; ; i++ {
		if err := tb.UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
		st := j.Stats()
		if st.OpsSinceSnapshot == 0 {
			if i <= DefaultSnapshotEvery || prev.WALBytes >= snap.SnapshotBytes {
				t.Fatalf("compacted after %d records at a %d-byte WAL, want more than %d records and a WAL of %d bytes",
					i, prev.WALBytes, DefaultSnapshotEvery, snap.SnapshotBytes)
			}
			break
		}
		if i > 100*DefaultSnapshotEvery {
			t.Fatalf("never compacted: %+v", st)
		}
		prev = st
	}
	j.Close()

	j, sp, _ = openTestJournal(t, dir, JournalOptions{SnapshotEvery: DefaultSnapshotEvery})
	defer j.Close()
	tb = sp.Table([]byte("k"))
	for i := 0; i < DefaultSnapshotEvery; i++ {
		if err := tb.UpdateTagged("master", juid(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.OpsSinceSnapshot != 0 {
		t.Fatalf("an explicit SnapshotEvery did not compact on the count: %+v", st)
	}
}

// TestJournaledUpdateAllocs pins what a journaled head move of an
// existing branch allocates: nothing inside an open batch scope, since
// the table hands the journal its own key string, which is framed
// straight into the pending buffer; and the scope itself for a whole
// Begin-UpdateTaggedIn-End. The key is longer than one byte: the
// runtime interns one-byte strings, so a copy of one costs nothing.
func TestJournaledUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	j, sp, _ := openTestJournal(t, t.TempDir(), JournalOptions{SnapshotEvery: -1})
	defer j.Close()
	tb := sp.Table([]byte("ledger/key-0001"))
	if err := tb.UpdateTagged("master", juid(1), nil); err != nil {
		t.Fatal(err)
	}
	i := 0
	update := func(b *Batch) {
		i++
		if err := tb.UpdateTaggedIn(b, "master", juid(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := j.Begin()
	inScope := testing.AllocsPerRun(100, func() { update(b) })
	if err := b.End(); err != nil {
		t.Fatal(err)
	}
	if inScope != 0 {
		t.Fatalf("journaled UpdateTaggedIn in an open scope: %.0f allocs/op, want 0", inScope)
	}
	scoped := testing.AllocsPerRun(100, func() {
		b := j.Begin()
		update(b)
		if err := b.End(); err != nil {
			t.Fatal(err)
		}
	})
	if scoped != 1 {
		t.Fatalf("Begin, journaled UpdateTaggedIn, End: %.0f allocs/op, want exactly 1", scoped)
	}
}
