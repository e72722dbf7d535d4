// Metadata journal: the durability layer under the branch tables.
//
// The branch tables are the authoritative map from names to version
// heads (§4.5), yet they are pure in-memory structures — without a
// journal a reopened persistent store forgets every branch, untagged
// head and pin, and the first GC after reopen would see zero roots and
// reclaim all live data. The journal closes that hole: every mutation
// of a Table (and every pin/unpin the engine performs) is recorded as
// one crc32-framed record in an append-only WAL, and the state is
// periodically folded into a full snapshot so the WAL never grows
// unbounded.
//
// On-disk layout (inside the store directory, beside the chunk log):
//
//	meta.wal   frames of: u32 crc32(body) | u32 len(body) | body
//	meta.snap  "FBM1" | u32 len(body) | u32 crc32(body) | body
//
// Recovery loads the snapshot (if any) and replays the WAL over it,
// stopping quietly at a torn tail — exactly the chunk log's recovery
// contract. Compaction writes the full state to meta.snap.tmp, fsyncs,
// atomically renames it over meta.snap, and only then truncates the
// WAL; a crash between the rename and the truncate leaves a WAL whose
// records are already folded into the snapshot, which is harmless
// because every record is replay-idempotent: ops carry resulting uids,
// never conditions, so re-applying an ordered prefix over a state that
// already contains it converges to the same state.
//
// Appends are group-committed. Every record first joins an in-memory
// pending buffer, in apply order; a flush then runs the write-ahead
// barrier once and hands the whole buffer to the file in one write
// (one fsync under Sync). Record flushes at once — a batch of one —
// while a Batch defers the flush to its End. Four things hold however
// writers interleave: (1) WAL byte order is apply order across all
// writers, because there is one buffer and every flush takes all of
// it — a Record landing while a Batch is open carries the batch's
// pending prefix to disk with it and can not overtake an older record
// of its key; (2) a record is in the file before the Record or End
// that flushed it — and hence the engine call that caused it —
// returns; (3) a torn or failed batch write leaves a frame-exact
// prefix: recovery stops at the first incomplete frame, and a failed
// write is rolled back to the last frame of the previous flush; (4)
// SnapshotEvery counts records, not flushes.
package branch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"forkbase/internal/obs"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// OpKind identifies a journaled branch-table or pin mutation.
type OpKind uint8

// The journaled operations. Each records the *result* of a mutation
// (the uid a branch ended up at), never its precondition, so replay
// needs no guard evaluation and is idempotent.
const (
	// OpUpdateTagged sets tagged[Branch] = UID (M3, M5, M6).
	OpUpdateTagged OpKind = iota + 1
	// OpFork creates tagged[Branch] = UID (M11, M12).
	OpFork
	// OpRename moves tagged[Branch] (head UID) to tagged[Name] (M13).
	OpRename
	// OpRemove deletes tagged[Branch] (M14).
	OpRemove
	// OpAddUntagged adds UID to the UB-table, consuming Bases (M4).
	OpAddUntagged
	// OpReplaceUntagged replaces Bases with UID in the UB-table (M7).
	OpReplaceUntagged
	// OpPin adds UID to the engine's pin set.
	OpPin
	// OpUnpin removes UID from the engine's pin set.
	OpUnpin
)

// Op is one journaled metadata mutation.
type Op struct {
	Kind   OpKind
	Key    []byte      // owning key; empty for pin ops and for a table's records
	Branch string      // branch operated on (rename source)
	Name   string      // rename target
	UID    types.UID   // resulting head / pinned uid
	Bases  []types.UID // consumed untagged heads
}

// walFile is what the journal needs of its WAL handle; tests put a
// failing writer behind it.
type walFile interface {
	io.WriteCloser
	Truncate(size int64) error
	Sync() error
}

// journal file names, living beside the chunk log's segments.
const (
	walName     = "meta.wal"
	snapName    = "meta.snap"
	snapTmpName = "meta.snap.tmp"
)

var snapMagic = [4]byte{'F', 'B', 'M', '1'}

// DefaultSnapshotEvery is the fewest records between compactions by
// default; that cadence also waits for the WAL to match the snapshot.
const DefaultSnapshotEvery = 4096

// ErrJournalCorrupt reports a snapshot that fails its integrity check.
// (A torn WAL tail is NOT corruption — it is the expected residue of a
// crash and is silently truncated at recovery.)
var ErrJournalCorrupt = errors.New("branch: metadata snapshot corrupt")

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Sync fsyncs the WAL after every flush, so each metadata mutation
	// survives a power loss before its caller returns (the Barrier, the
	// chunk log's Sync, fsyncs the directory both live in). Default
	// false: records still reach the file before their caller returns,
	// so an unclean process stop loses nothing a caller was told of.
	Sync bool
	// SnapshotEvery is the number of records between snapshot+truncate
	// compactions. 0 means DefaultSnapshotEvery records and a WAL as
	// large as the last snapshot; negative disables compaction.
	SnapshotEvery int
	// Barrier, when set, runs before each flush appends its records.
	// The store layer points it at the chunk log's Flush, or under Sync
	// its Sync, so a head recorded in the WAL always resolves to chunks
	// at least as durable as the record itself.
	Barrier func() error
	// FsyncHist, when set, receives the duration of every fsync (Sync
	// mode only; one per flush) — the journal's contribution to write
	// latency, exported through the owning DB's metric registry.
	FsyncHist *obs.Histogram
}

// Journal is the file-backed record of every branch-table and pin
// mutation, in the order they were applied: an append-only WAL with
// periodic snapshot compaction. A Table or Space without one (the
// in-memory deployment) journals nothing. It keeps a shadow copy
// of the full metadata state so compaction never has to lock the live
// branch tables (Record is called while a Table's mutex is held).
type Journal struct {
	mu    sync.Mutex
	dir   string
	f     walFile
	opts  JournalOptions
	every int

	state     journalState
	walBytes  int64
	snapBytes int64
	sinceSnap int
	// pending holds the frames of npending records that are folded
	// into state but not yet in the file, in apply order.
	pending  []byte
	npending int
	// lost counts flushes that failed, lostErr is the last failure: a
	// Batch whose records another writer's flush carried — and lost —
	// learns of it at End.
	lost    uint64
	lostErr error
	// broken is set when a failed append could not be rolled back: the
	// WAL then ends in a partial frame that would silently cut replay
	// short, so no further record may pretend to be durable.
	broken error

	// crashHook, when set (crash-consistency tests only), fires at
	// named points of a compaction — "snap-written" (tmp fsynced),
	// "snap-renamed" (swap and directory fsync done), "truncated" (WAL
	// reset) — and after a Sync flush's fsync, "synced", so the
	// harness can rebuild the directory a crash then would leave.
	// Called with j.mu held.
	crashHook func(event string)
}

// journalState is the journal's shadow of the metadata: what a replay
// of snapshot+WAL reconstructs. Each key's heads are the same value a
// Table holds: one tagged branch inline, maps only after a fork.
type journalState struct {
	keys map[string]*heads
	pins map[types.UID]struct{}
}

func newJournalState() journalState {
	return journalState{
		keys: make(map[string]*heads),
		pins: make(map[types.UID]struct{}),
	}
}

func (st *journalState) table(key string) *heads {
	ts, ok := st.keys[key]
	if !ok {
		ts = new(heads)
		st.keys[key] = ts
	}
	return ts
}

// apply folds one op of key into the state. Replay-idempotent:
// applying an ordered op sequence over a state that already includes a
// prefix of it converges to the same final state.
func (st *journalState) apply(key string, op Op) {
	switch op.Kind {
	case OpPin:
		st.pins[op.UID] = struct{}{}
	case OpUnpin:
		delete(st.pins, op.UID)
	default:
		st.table(key).apply(op)
	}
}

// OpenJournal opens (creating if necessary) the metadata journal in
// dir, recovering its state: snapshot first, then every intact WAL
// record over it. A torn WAL tail is truncated away; a stale
// compaction temp file is removed.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("branch: %w", err)
	}
	j := &Journal{
		dir:   dir,
		opts:  opts,
		every: opts.SnapshotEvery,
		state: newJournalState(),
	}
	if j.every == 0 {
		j.every = DefaultSnapshotEvery
	}
	// A crash mid-compaction can leave a half-written temp snapshot;
	// the rename never happened, so it holds nothing the WAL doesn't.
	os.Remove(filepath.Join(dir, snapTmpName))
	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	valid, n, err := j.replayWAL()
	if err != nil {
		return nil, err
	}
	j.sinceSnap = n
	// Drop a torn tail so the append point is clean, mirroring the
	// chunk log's recovery.
	walPath := filepath.Join(dir, walName)
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > valid {
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, fmt.Errorf("branch: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("branch: %w", err)
	}
	j.f = f
	j.walBytes = valid
	return j, nil
}

// Restore materializes the recovered state as a live Space (with this
// journal attached as its sink, so every further mutation is recorded)
// plus the recovered pin set, sorted.
func (j *Journal) Restore() (*Space, []types.UID) {
	j.mu.Lock()
	defer j.mu.Unlock()
	sp := NewSpace()
	sp.sink = j
	for k, ts := range j.state.keys {
		sp.tables[k] = &Table{key: k, sink: j, h: ts.clone()}
	}
	pins := make([]types.UID, 0, len(j.state.pins))
	for uid := range j.state.pins {
		pins = append(pins, uid)
	}
	sortUIDs(pins)
	return sp, pins
}

// SetBarrierForTest replaces the write-ahead barrier with wrap applied
// to the current one, so a test can park or fail a flush at the point
// before its records reach the file. Tests only.
func (j *Journal) SetBarrierForTest(wrap func(barrier func() error) func() error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.opts.Barrier = wrap(j.opts.Barrier)
}

// Record journals op, a pin or unpin or an op of op.Key: it is folded
// into the shadow state, joins the pending buffer and is flushed to the
// WAL at once, behind whatever an open Batch left pending. The caller's
// in-memory mutation stands even when the flush fails — the failure
// mode equals a crash just before the op, which recovery already
// tolerates — so the error is purely a durability report.
func (j *Journal) Record(op Op) error { return j.record(nil, string(op.Key), op) }

// record is Record for an op of key, which a table passes beside the
// op rather than copy it into op.Key. In an open batch scope b the op
// is left pending for b's End; a nil b flushes it at once.
func (j *Journal) record(b *Batch, key string, op Op) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(key, op)
	if b != nil {
		return nil
	}
	return j.flushLocked()
}

// Batch is a group-commit scope: its records join the journal's
// pending buffer and reach the file with the scope's End — or sooner,
// carried by another writer's flush — under one barrier, one write and
// one fsync. A table records an op in the nil Batch, which a nil
// Journal begins, at once; the nil Batch ends as a no-op.
type Batch struct {
	j    *Journal
	lost uint64 // j.lost at Begin
}

// Begin opens a batch scope. Scopes may overlap, across goroutines or
// within one; each End flushes everything pending.
func (j *Journal) Begin() *Batch {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return &Batch{j: j, lost: j.lost}
}

// End flushes the pending records and reports whether any flush since
// Begin — this one, or one that carried this scope's records for
// another writer — failed. The engine call that opened the scope must
// not return before End does.
func (b *Batch) End() error {
	if b == nil {
		return nil
	}
	j := b.j
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return err
	}
	if j.lost != b.lost {
		return j.lostErr
	}
	return nil
}

// maxIdlePending bounds the pending buffer kept between flushes; one
// oversized batch must not pin its buffer for the journal's lifetime.
const maxIdlePending = 64 << 10

// appendLocked folds op of key into the shadow state and frames it
// onto the pending buffer.
func (j *Journal) appendLocked(key string, op Op) {
	j.state.apply(key, op)
	at := len(j.pending)
	j.pending = appendOp(append(j.pending, make([]byte, 8)...), key, op)
	body := j.pending[at+8:]
	binary.LittleEndian.PutUint32(j.pending[at:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(j.pending[at+4:], uint32(len(body)))
	j.npending++
}

// flushLocked moves the pending records to the WAL: the Barrier first
// (write-ahead ordering against the chunk log), then one write, one
// fsync under Sync, and a compaction on the SnapshotEvery cadence.
// Whether it succeeds or not the buffer is empty afterwards — records
// that missed the file live on in the shadow state, and the next
// snapshot captures them.
func (j *Journal) flushLocked() error {
	if j.npending == 0 {
		return nil
	}
	frames, n := j.pending, j.npending
	j.pending, j.npending = frames[:0], 0
	if cap(frames) > maxIdlePending {
		j.pending = nil
	}
	err := j.writeLocked(frames, n)
	if err != nil {
		j.lost++
		j.lostErr = err
	}
	return err
}

func (j *Journal) writeLocked(frames []byte, n int) error {
	if j.opts.Barrier != nil {
		//forkvet:allow lockhold — the barrier and the write below run under j.mu on purpose: journal order is apply order, so a flush must be in the file before the next record may follow it (PR 4, batched in PR 15)
		if err := j.opts.Barrier(); err != nil {
			return fmt.Errorf("branch: journal barrier: %w", err)
		}
	}
	if j.broken != nil {
		// Self-heal: the shadow state has kept tracking every mutation
		// (including these, applied before they were framed), so a
		// successful snapshot + truncate both captures the backlog and
		// removes the partial frame that poisoned the WAL.
		// compactLocked clears broken.
		if cerr := j.compactLocked(); cerr != nil {
			return fmt.Errorf("branch: journal unusable after append failure: %w", j.broken)
		}
		return nil // these ops are durable via the fresh snapshot
	}
	if _, err := j.f.Write(frames); err != nil {
		// Roll the file back to the last intact frame of the previous
		// flush: a partial frame left in place would make replay stop
		// there, silently cutting off every record appended after the
		// disk recovered. If even the rollback fails, poison the
		// journal — pretending later appends are durable would be a
		// lie.
		if terr := j.f.Truncate(j.walBytes); terr != nil {
			j.broken = fmt.Errorf("append: %v, rollback: %w", err, terr)
		}
		return fmt.Errorf("branch: journal append: %w", err)
	}
	// The frames are in the file whatever Sync says below; account for
	// them now, or a later rollback would truncate at a stale offset
	// and tear an already-written record.
	j.walBytes += int64(len(frames))
	j.sinceSnap += n
	if j.opts.Sync {
		start := time.Now()
		//forkvet:allow lockhold — fsync under j.mu is the point: journal order is apply order, so the barrier must complete before the next flush (PR 4)
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("branch: journal sync: %w", err)
		}
		j.hook("synced")
		if j.opts.FsyncHist != nil {
			j.opts.FsyncHist.ObserveSince(start)
		}
	}
	if j.every > 0 && j.sinceSnap >= j.every && (j.opts.SnapshotEvery != 0 || j.walBytes >= j.snapBytes) {
		return j.compactLocked()
	}
	return nil
}

// Compact forces a snapshot+truncate compaction now, regardless of the
// SnapshotEvery cadence. Records an open Batch left pending are flushed
// first: the snapshot is cut from the shadow state, which already holds
// them, and must not name a head ahead of the write-ahead barrier.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return err
	}
	return j.compactLocked()
}

// compactLocked writes the full state as a snapshot, atomically swaps
// it in, and truncates the WAL. Durability order: tmp written and
// fsynced BEFORE the rename, rename BEFORE the truncate — a crash at
// any point leaves either the old snapshot plus the full WAL, or the
// new snapshot plus a WAL whose records are replay-idempotent over it.
func (j *Journal) compactLocked() error {
	// Sized to the last snapshot, so a state that did not grow encodes
	// in one allocation, however long the WAL it folds.
	snap := encodeSnapshot(make([]byte, 12, 12+j.snapBytes), &j.state)
	body := snap[12:]
	copy(snap[0:4], snapMagic[:])
	binary.LittleEndian.PutUint32(snap[4:8], uint32(len(body)))
	binary.LittleEndian.PutUint32(snap[8:12], crc32.ChecksumIEEE(body))
	tmp := filepath.Join(j.dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("branch: %w", err)
	}
	if _, err = f.Write(snap); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("branch: snapshot: %w", err)
	}
	j.hook("snap-written")
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		return fmt.Errorf("branch: snapshot swap: %w", err)
	}
	store.SyncDir(j.dir)
	j.hook("snap-renamed")
	// The WAL's records are now folded into the snapshot; reset it.
	// The file is opened O_APPEND, so the next write lands at the new
	// end regardless of the handle's offset.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("branch: wal truncate: %w", err)
	}
	j.walBytes = 0
	j.sinceSnap = 0
	j.snapBytes = int64(len(snap))
	// The snapshot holds the full shadow state and the WAL is empty:
	// whatever partial frame poisoned the log is gone.
	j.broken = nil
	j.hook("truncated")
	return nil
}

// SetCrashHookForTest installs crashHook. Tests only.
func (j *Journal) SetCrashHookForTest(h func(event string)) { j.crashHook = h }

func (j *Journal) hook(event string) {
	if j.crashHook != nil {
		j.crashHook(event)
	}
}

// Close closes the WAL handle. Nothing stays buffered in-process past
// the call that recorded it, so nothing is lost by closing without
// Compact.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("branch: %w", err)
	}
	return nil
}

// JournalStats reports the journal's footprint and recovered contents.
type JournalStats struct {
	WALBytes         int64 // bytes of WAL not yet folded into the snapshot
	SnapshotBytes    int64 // bytes of the current snapshot file
	OpsSinceSnapshot int   // records a reopen would replay
	Keys             int   // keys with a recovered branch table
	Tagged           int   // tagged branches across all keys
	Untagged         int   // untagged heads across all keys
	Pins             int   // pinned uids
}

func (s JournalStats) String() string {
	return fmt.Sprintf("journal: wal=%dB snapshot=%dB replay=%d ops, %d keys, %d tagged, %d untagged, %d pins",
		s.WALBytes, s.SnapshotBytes, s.OpsSinceSnapshot, s.Keys, s.Tagged, s.Untagged, s.Pins)
}

// Stats returns the journal's current footprint.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JournalStats{
		WALBytes:         j.walBytes,
		SnapshotBytes:    j.snapBytes,
		OpsSinceSnapshot: j.sinceSnap,
		Keys:             len(j.state.keys),
		Pins:             len(j.state.pins),
	}
	for _, ts := range j.state.keys {
		nt, nu := ts.count()
		s.Tagged += nt
		s.Untagged += nu
	}
	return s
}

// --- codecs ----------------------------------------------------------

// appendOp serializes one op onto b:
//
//	u8 kind | u32 klen | key | u32 blen | branch | u32 nlen | name |
//	uid (32B) | u32 nbases | nbases × 32B
func appendOp(b []byte, key string, op Op) []byte {
	b = append(b, byte(op.Kind))
	b = appendBytes(b, key)
	b = appendBytes(b, op.Branch)
	b = appendBytes(b, op.Name)
	b = append(b, op.UID[:]...)
	b = appendU32(b, uint32(len(op.Bases)))
	for _, u := range op.Bases {
		b = append(b, u[:]...)
	}
	return b
}

// decodeOp parses an op body; an undecodable body reports false, which
// replay treats like a torn record.
func decodeOp(b []byte) (Op, bool) {
	var op Op
	if len(b) < 1 {
		return op, false
	}
	op.Kind = OpKind(b[0])
	if op.Kind < OpUpdateTagged || op.Kind > OpUnpin {
		return op, false
	}
	b = b[1:]
	key, b, ok := takeBytes(b)
	if !ok {
		return op, false
	}
	branchName, b, ok := takeBytes(b)
	if !ok {
		return op, false
	}
	name, b, ok := takeBytes(b)
	if !ok {
		return op, false
	}
	if len(b) < len(op.UID)+4 {
		return op, false
	}
	copy(op.UID[:], b)
	b = b[len(op.UID):]
	nbases := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if len(b) != int(nbases)*len(op.UID) {
		return op, false
	}
	op.Bases = make([]types.UID, nbases)
	for i := range op.Bases {
		copy(op.Bases[i][:], b[i*len(op.UID):])
	}
	if len(op.Bases) == 0 {
		op.Bases = nil
	}
	if len(key) > 0 {
		op.Key = key
	}
	op.Branch, op.Name = string(branchName), string(name)
	return op, true
}

// encodeSnapshot appends the full state to b, sorted so identical
// states produce identical bytes; a key allocates nothing of its own:
//
//	u32 nkeys | per key: u32 klen | key
//	                     u32 ntagged   | per branch: u32 nlen | name | uid
//	                     u32 nuntagged | per head: uid
//	u32 npins | per pin: uid
func encodeSnapshot(b []byte, st *journalState) []byte {
	keys := make([]string, 0, len(st.keys))
	for k := range st.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var tagged []TaggedBranch
	var uids []types.UID
	b = appendU32(b, uint32(len(keys)))
	for _, k := range keys {
		ts := st.keys[k]
		b = appendBytes(b, k)
		tagged = ts.tagged(tagged[:0])
		b = appendU32(b, uint32(len(tagged)))
		for _, tb := range tagged {
			b = appendBytes(b, tb.Name)
			b = append(b, tb.Head[:]...)
		}
		uids = ts.untaggedHeads(uids[:0])
		b = appendU32(b, uint32(len(uids)))
		for _, u := range uids {
			b = append(b, u[:]...)
		}
	}
	uids = uids[:0]
	for u := range st.pins {
		uids = append(uids, u)
	}
	sortUIDs(uids)
	b = appendU32(b, uint32(len(uids)))
	for _, u := range uids {
		b = append(b, u[:]...)
	}
	return b
}

func decodeSnapshot(b []byte, st *journalState) error {
	bad := func() error { return fmt.Errorf("%w: truncated body", ErrJournalCorrupt) }
	nkeys, b, ok := takeU32(b)
	if !ok {
		return bad()
	}
	var uid types.UID
	for i := 0; i < int(nkeys); i++ {
		key, rest, ok := takeBytes(b)
		if !ok {
			return bad()
		}
		b = rest
		ts := st.table(string(key))
		ntagged, rest, ok := takeU32(b)
		if !ok {
			return bad()
		}
		b = rest
		for t := 0; t < int(ntagged); t++ {
			name, rest, ok := takeBytes(b)
			if !ok || len(rest) < len(uid) {
				return bad()
			}
			copy(uid[:], rest)
			ts.set(string(name), uid)
			b = rest[len(uid):]
		}
		nuntagged, rest, ok := takeU32(b)
		if !ok {
			return bad()
		}
		b = rest
		for u := 0; u < int(nuntagged); u++ {
			if len(b) < len(uid) {
				return bad()
			}
			copy(uid[:], b)
			ts.apply(Op{Kind: OpAddUntagged, UID: uid})
			b = b[len(uid):]
		}
	}
	npins, b, ok := takeU32(b)
	if !ok {
		return bad()
	}
	for i := 0; i < int(npins); i++ {
		if len(b) < len(uid) {
			return bad()
		}
		copy(uid[:], b)
		st.pins[uid] = struct{}{}
		b = b[len(uid):]
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrJournalCorrupt, len(b))
	}
	return nil
}

// loadSnapshot reads meta.snap into the state, if present. A snapshot
// that fails its crc is reported as ErrJournalCorrupt — unlike a torn
// WAL tail it can only mean disk rot, since the swap is atomic.
func (j *Journal) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(j.dir, snapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("branch: %w", err)
	}
	if len(data) < 12 || [4]byte(data[0:4]) != snapMagic {
		return fmt.Errorf("%w: bad header", ErrJournalCorrupt)
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	crc := binary.LittleEndian.Uint32(data[8:12])
	body := data[12:]
	if uint32(len(body)) != n || crc32.ChecksumIEEE(body) != crc {
		return fmt.Errorf("%w: checksum mismatch", ErrJournalCorrupt)
	}
	if err := decodeSnapshot(body, &j.state); err != nil {
		return err
	}
	j.snapBytes = int64(len(data))
	return nil
}

// replayWAL folds every intact WAL record into the state, returning
// the offset just past the last intact record and the record count.
func (j *Journal) replayWAL() (valid int64, n int, err error) {
	f, err := os.Open(filepath.Join(j.dir, walName))
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("branch: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("branch: %w", err)
	}
	size := fi.Size()
	r := &countingReader{r: f}
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return valid, n, nil
		}
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		bl := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(bl) > size-r.n {
			// The length field is not covered by the crc; a corrupted
			// one must not drive the body allocation past what the
			// file can even hold. Treat it like a torn tail.
			return valid, n, nil
		}
		body := make([]byte, bl)
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, n, nil
		}
		if crc32.ChecksumIEEE(body) != crc {
			return valid, n, nil
		}
		op, ok := decodeOp(body)
		if !ok {
			return valid, n, nil
		}
		j.state.apply(string(op.Key), op)
		valid = r.n
		n++
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// --- byte helpers ----------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], v)
	return append(b, u[:]...)
}

func takeU32(b []byte) (uint32, []byte, bool) {
	if len(b) < 4 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint32(b), b[4:], true
}

func appendBytes[S string | []byte](b []byte, s S) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func takeBytes(b []byte) ([]byte, []byte, bool) {
	n, rest, ok := takeU32(b)
	if !ok || len(rest) < int(n) {
		return nil, nil, false
	}
	return rest[:n], rest[n:], true
}
