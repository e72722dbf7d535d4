package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/obs"
)

// FileStore is a log-structured persistent chunk store (§4.4). Chunks are
// appended to segment files; there is no update-in-place, and garbage
// appears only when a collection (Sweep) declares chunks unreachable.
// Consecutively generated chunks of a POS-Tree land next to each other
// in the log, which makes their retrieval sequential.
//
// Record layout: crc32(body) | uint32 len(body) | body, where body is the
// serialized chunk (type byte + payload), all integers little-endian.
//
// Reads run concurrently: the index lookup takes only a read lock,
// record bytes are fetched with ReadAt on a per-segment read handle
// (records are immutable once written, so no lock covers the I/O), and
// the stored crc32 is re-verified on every Get so a corrupting disk or
// filesystem surfaces as ErrCorrupt instead of silently decoded bytes.
// A Get computes no sha256: the index maps an id to a record this store
// hashed when it indexed it — at Put, or at replay — so a record whose
// crc holds is served under that id. Wrap the store in Verified to
// rehash every read instead (paper §2.3's untrusted storage provider).
// Only a read that lands in the not-yet-flushed tail of the active
// segment takes the write lock, to flush the buffered writer first.
type FileStore struct {
	mu      sync.RWMutex
	dir     string
	index   map[chunk.ID]location
	active  *os.File
	w       *bufio.Writer
	seg     int   // active segment number
	off     int64 // next write offset in the active segment
	flushed int64 // bytes of the active segment visible to ReadAt
	maxSeg  int64
	stats   Stats
	// The log is fsynced up to offset syncOff of segment syncSeg, and
	// the directory unless dirDirty; open trusts none. Guarded by mu.
	syncSeg  int
	syncOff  int64
	dirDirty bool

	// rmu guards readers. Lock order: mu may be held when taking rmu
	// (compaction's under-lock record fetch); never the reverse.
	rmu     sync.RWMutex
	readers map[int]*os.File

	gets      atomic.Int64 // stats.Gets, updated outside mu
	readBytes atomic.Int64 // stats.ReadBytes, updated outside mu

	// GC state, guarded by mu. While gcDepth > 0 every Put (fresh or
	// deduplicated) records its cid in protected, shielding it from a
	// concurrent Sweep; see Collectable.
	gcDepth   int
	protected map[chunk.ID]struct{}
	sweeping  bool
	// Young-only sweeps; see youngSweeper. After a completed sweep,
	// every index entry in a segment below sealedAt is one that sweep
	// kept: live in its mark, or in kept, the protected set of its
	// window. So an entry is young if its segment is at or above
	// sealedAt or kept holds it, and old otherwise. gen numbers that
	// sweep among the sweeps counted in sweeps; 0 means none has
	// completed since open, or the last one failed. kept is the
	// window's own map: a later window makes a new one and never
	// clears it. Guarded by mu.
	gen      uint64
	sweeps   uint64
	sealedAt int
	kept     map[chunk.ID]struct{}
	// unpinned is set while the active segment holds relocated records
	// that no fsync has covered: the only bytes of the log some later
	// unlink may depend on. Guarded by mu.
	unpinned bool

	// crashHook, when set (crash-consistency tests only), is invoked at
	// named points of a Sweep so the harness can snapshot the on-disk
	// state a crash at that moment would leave behind; after an fsync
	// ("synced" seg, "dir-synced") it fires under fs.mu, else without.
	crashHook func(event string, seg int)
}

type location struct {
	seg int
	off int64
	n   int // body length
}

const recordHeader = 8 // crc32 + len

// FileStoreOptions configures a FileStore.
type FileStoreOptions struct {
	// SegmentSize rotates the log when the active segment exceeds this
	// many bytes. Default 64 MiB.
	SegmentSize int64
}

// OpenFileStore opens (creating if necessary) a log-structured store in
// dir, replaying existing segments to rebuild the cid index. A torn tail
// record in the newest segment is tolerated and truncated away.
func OpenFileStore(dir string, opts FileStoreOptions) (*FileStore, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = 64 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fs := &FileStore{
		dir:     dir,
		index:   make(map[chunk.ID]location),
		maxSeg:  opts.SegmentSize,
		readers: make(map[int]*os.File),
	}
	if err := fs.recover(); err != nil {
		return nil, err
	}
	return fs, nil
}

func segName(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", seg))
}

func (fs *FileStore) recover() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err == nil {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	fs.dirDirty = true // so the first Sync covers every segment, from 0
	for i, seg := range segs {
		valid, err := fs.replaySegment(seg)
		if err != nil {
			return err
		}
		last := i == len(segs)-1
		if last {
			fs.seg = seg
			fs.off = valid
			// Drop a torn tail so the append point is clean.
			if err := os.Truncate(segName(fs.dir, seg), valid); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
	}
	f, err := os.OpenFile(segName(fs.dir, fs.seg), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(fs.off, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	fs.active = f
	fs.w = bufio.NewWriterSize(f, 1<<20)
	fs.flushed = fs.off // everything replayed is on disk
	return nil
}

// replaySegment scans one segment, indexing every intact record, and
// returns the offset just past the last intact record.
func (fs *FileStore) replaySegment(seg int) (int64, error) {
	f, err := os.Open(segName(fs.dir, seg))
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	hdr := make([]byte, recordHeader)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return off, nil // clean EOF or torn header: stop here
		}
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > fi.Size()-off-recordHeader {
			return off, nil // a length past the end of the file: torn or damaged
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return off, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != crc {
			return off, nil // corrupt tail
		}
		c, err := chunk.Decode(body)
		if err != nil {
			return off, nil
		}
		if _, ok := fs.index[c.ID()]; !ok {
			fs.index[c.ID()] = location{seg: seg, off: off + recordHeader, n: int(n)}
			fs.stats.Chunks++
			fs.stats.Bytes += int64(c.Size())
		}
		off += recordHeader + int64(n)
	}
}

// Put implements Store.
func (fs *FileStore) Put(c *chunk.Chunk) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.Puts++
	if fs.gcDepth > 0 {
		// Shield the cid — fresh or deduplicated — from a concurrent
		// sweep: the marker cannot know about writes racing with it.
		fs.protected[c.ID()] = struct{}{}
	}
	if _, ok := fs.index[c.ID()]; ok {
		fs.stats.Dups++
		fs.stats.DupBytes += int64(c.Size())
		return true, nil
	}
	if err := fs.appendLocked(c.ID(), c.Type(), c.Data()); err != nil {
		return false, err
	}
	fs.stats.Chunks++
	fs.stats.Bytes += int64(c.Size())
	if fs.off >= fs.maxSeg {
		if err := fs.rotateLocked(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// appendLocked writes one record — body = type byte + payload, the
// serialized chunk — to the active segment and points the index at it.
// The two parts go to the segment writer as they are, under a running
// crc, instead of being joined in a fresh buffer first.
func (fs *FileStore) appendLocked(id chunk.ID, t chunk.Type, payload []byte) error {
	var hdr [recordHeader + 1]byte
	hdr[recordHeader] = byte(t)
	n := 1 + len(payload)
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[recordHeader:]), crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
	if _, err := fs.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := fs.w.Write(payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fs.index[id] = location{seg: fs.seg, off: fs.off + recordHeader, n: n}
	fs.off += recordHeader + int64(n)
	return nil
}

func (fs *FileStore) rotateLocked() error {
	if err := fs.w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A sealed segment is immutable from here on, and compaction may
	// later delete the only other copy of a record relocated into it:
	// relocated records no barrier has covered yet (a rotation in the
	// middle of a compaction, or a Put's between a compaction's appends
	// and its barrier) are pinned down before the handle goes. Nothing
	// else in the segment waits for an fsync here — fresh Puts are made
	// durable by the next Sync, which fsyncs every segment sealed since
	// the last one — so a collection that seals a segment of fresh
	// writes does not stall on the device for them.
	if fs.unpinned {
		if err := fs.active.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fs.hook("synced", fs.seg)
		fs.unpinned = false
	}
	if err := fs.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fs.seg++
	fs.off = 0
	fs.flushed = 0
	f, err := os.OpenFile(segName(fs.dir, fs.seg), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fs.active = f
	fs.dirDirty = true
	fs.w.Reset(f) // flushed above: the megabyte of buffer moves to the new file
	return nil
}

// Get implements Store. The stored crc32 is re-verified against the
// body, so a flipped bit on disk is reported as ErrCorrupt (with the
// segment and offset of the damaged record) instead of being decoded.
//
// A read can race with segment compaction: between the index lookup
// and the ReadAt, the sweep may relocate the record and delete its
// segment file, making the I/O fail on a vanished file or closed
// handle. Those failures re-run the lookup — the index then points at
// the relocated copy (or reports the chunk gone, if it was collected).
func (fs *FileStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	fs.gets.Add(1)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, retry, err := fs.getOnce(id)
		if err == nil {
			return c, nil
		}
		if !retry {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// getOnce performs one lookup + read. retry reports that the I/O hit a
// file compaction may have just removed, so the lookup is worth
// re-running.
func (fs *FileStore) getOnce(id chunk.ID) (c *chunk.Chunk, retry bool, err error) {
	fs.mu.RLock()
	loc, ok := fs.index[id]
	seg, flushed := fs.seg, fs.flushed
	fs.mu.RUnlock()
	if !ok {
		return nil, false, ErrNotFound
	}
	// A read in the unflushed tail of the active segment must push the
	// buffered writes to the file first; everything else reads without
	// the write lock, since committed records are immutable.
	if loc.seg == seg && loc.off+int64(loc.n) > flushed {
		if err := fs.Flush(); err != nil {
			return nil, false, fmt.Errorf("store: %w", err)
		}
	}
	r, err := fs.reader(loc.seg)
	if err != nil {
		return nil, true, err
	}
	rec := make([]byte, recordHeader+loc.n)
	if _, err := r.ReadAt(rec, loc.off-recordHeader); err != nil {
		return nil, true, fmt.Errorf("store: %w", err)
	}
	fs.readBytes.Add(int64(loc.n))
	body := rec[recordHeader:]
	if crc := binary.LittleEndian.Uint32(rec[0:4]); crc32.ChecksumIEEE(body) != crc {
		return nil, false, fmt.Errorf("%w: crc mismatch for %s at seg %d offset %d",
			ErrCorrupt, id.Short(), loc.seg, loc.off)
	}
	// The record is the one this store indexed under id, hashed when it
	// was indexed, and its crc holds: serve it under id without hashing
	// again (store.Verified is the read that does). rec was allocated
	// above, for this chunk alone.
	c, err = chunk.DecodeStored(body, id)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %s at seg %d offset %d: %v",
			ErrCorrupt, id.Short(), loc.seg, loc.off, err)
	}
	return c, false, nil
}

// reader returns (opening on first use) the shared read handle for a
// segment. Handles are only ever ReadAt, so one per segment is enough.
func (fs *FileStore) reader(seg int) (*os.File, error) {
	fs.rmu.RLock()
	f, ok := fs.readers[seg]
	fs.rmu.RUnlock()
	if ok {
		return f, nil
	}
	fs.rmu.Lock()
	defer fs.rmu.Unlock()
	if f, ok := fs.readers[seg]; ok {
		return f, nil
	}
	f, err := os.Open(segName(fs.dir, seg))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fs.readers[seg] = f
	return f, nil
}

// Has implements Store.
func (fs *FileStore) Has(id chunk.ID) bool {
	fs.mu.RLock()
	_, ok := fs.index[id]
	fs.mu.RUnlock()
	return ok
}

// Stats implements Store.
func (fs *FileStore) Stats() Stats {
	fs.mu.RLock()
	s := fs.stats
	fs.mu.RUnlock()
	s.Gets = fs.gets.Load()
	s.ReadBytes = fs.readBytes.Load()
	return s
}

// Flush forces buffered records to the operating system. A store with
// nothing buffered returns without the write lock — the metadata
// journal calls Flush as a write-ahead barrier before every record, so
// the common already-flushed case must not contend with writers.
// (Writes racing past the read-locked check need no flushing: a
// barrier only covers records written before it was requested.)
func (fs *FileStore) Flush() error {
	fs.mu.RLock()
	clean := fs.flushed == fs.off
	fs.mu.RUnlock()
	if clean {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.w.Flush(); err != nil {
		return err
	}
	fs.flushed = fs.off
	return nil
}

// Sync makes every chunk written so far survive a power loss: it
// fsyncs each segment written since the last Sync, sealed ones too,
// and the directory after a segment was created. A Sync that fsyncs
// is timed into hist; with no chunk written since the last, none does.
func (fs *FileStore) Sync(hist *obs.Histogram) error {
	start := time.Now()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.syncSeg == fs.seg && fs.syncOff == fs.off && !fs.dirDirty {
		return nil
	}
	if err := fs.w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fs.flushed = fs.off
	for seg := fs.syncSeg; seg <= fs.seg; seg++ {
		f, err := fs.active, error(nil)
		if seg < fs.seg { // sealed, its handle closed; gone if compacted, under the compaction's own fsync
			if f, err = os.OpenFile(segName(fs.dir, seg), os.O_WRONLY, 0); os.IsNotExist(err) {
				continue
			}
		}
		if err == nil {
			//forkvet:allow lockhold — the write-ahead barrier: no head may be journaled before the chunks it names are on disk, and fs.mu keeps a rotation from moving the log past what this Sync covers
			err = f.Sync()
			if f != fs.active {
				f.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fs.hook("synced", seg)
	}
	fs.syncDirLocked()
	fs.syncSeg, fs.syncOff = fs.seg, fs.off
	hist.ObserveSince(start)
	return nil
}

// syncDirLocked fsyncs the directory after a segment was created, so
// its entry, and the journal's beside it, survive a power loss.
func (fs *FileStore) syncDirLocked() {
	if fs.dirDirty {
		SyncDir(fs.dir) //forkvet:allow lockhold — part of the fsync barrier its caller holds fs.mu for
		fs.dirDirty = false
		fs.hook("dir-synced", fs.seg)
	}
}

// SyncDir fsyncs a directory so the entries made in it survive a power
// loss; best effort, since not every platform supports it.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close flushes and closes all segment files.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	err := fs.w.Flush()
	if err != nil {
		err = fmt.Errorf("store: %w", err)
	}
	if cerr := fs.active.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("store: %w", cerr)
	}
	fs.mu.Unlock()
	fs.rmu.Lock()
	for _, f := range fs.readers {
		f.Close()
	}
	fs.readers = make(map[int]*os.File)
	fs.rmu.Unlock()
	return err
}

// --- garbage collection ----------------------------------------------

// BeginGC implements Collectable: it opens the protection window in
// which every Put (fresh or deduplicated) shields its cid from Sweep.
func (fs *FileStore) BeginGC() {
	fs.mu.Lock()
	if fs.gcDepth == 0 {
		fs.protected = make(map[chunk.ID]struct{})
	}
	fs.gcDepth++
	fs.mu.Unlock()
}

// Protect implements Collectable. Sweep re-decides each entry under the
// write lock before it drops it, so an id protected before that moment
// survives, and one dropped before it is no longer Has.
func (fs *FileStore) Protect(ids []chunk.ID) {
	fs.mu.Lock()
	if fs.gcDepth > 0 {
		for _, id := range ids {
			fs.protected[id] = struct{}{}
		}
	}
	fs.mu.Unlock()
}

// EndGC implements Collectable, closing the protection window.
func (fs *FileStore) EndGC() {
	fs.mu.Lock()
	if fs.gcDepth--; fs.gcDepth <= 0 {
		fs.gcDepth = 0
		fs.protected = nil
	}
	fs.mu.Unlock()
}

// protectedLocked reports whether id was written during the open GC
// window. Callers hold fs.mu (either mode).
func (fs *FileStore) protectedLocked(id chunk.ID) bool {
	if fs.protected == nil {
		return false
	}
	_, ok := fs.protected[id]
	return ok
}

// SetCrashHookForTest installs crashHook. Tests only.
func (fs *FileStore) SetCrashHookForTest(h func(event string, seg int)) { fs.crashHook = h }

// hook fires the crash-consistency test hook, if installed.
func (fs *FileStore) hook(event string, seg int) {
	if fs.crashHook != nil {
		fs.crashHook(event, seg)
	}
}

// idLoc pairs an indexed cid with its snapshotted location.
type idLoc struct {
	id  chunk.ID
	loc location
}

// Sweep implements Collectable. The active segment is sealed first, so
// every record under consideration lives in an immutable file; then
// each sealed segment is processed independently: dead entries leave
// the index, and a segment whose live bytes fall below threshold of
// its file size is compacted — its live records are re-appended to the
// log, fsynced, and only then is the old file unlinked, so a crash at
// any byte of the process leaves every live chunk with at least one
// intact on-disk copy (recovery deduplicates by cid). That barrier is
// the sweep's only fsync: sealing waits for the device only when the
// segment holds relocated records the barrier has not covered (see
// rotateLocked). The segment the survivors were copied into is sealed
// at the end. Reads and writes proceed concurrently throughout; only
// the index swap of each segment takes the write lock.
func (fs *FileStore) Sweep(live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, error) {
	stats, dead, _, err := fs.sweepSince(0, live, threshold)
	return stats, dead, err
}

// sweepSince implements youngSweeper. A young-only sweep examines the
// segments that hold a young entry, because the live ratio of any
// other segment cannot have changed, and keeps every old entry in
// them. Orphan segments come only from recovery, which a reopened
// store's first, full, sweep handles, so it leaves them alone.
func (fs *FileStore) sweepSince(since uint64, live func(chunk.ID) bool, threshold float64) (GCStats, []chunk.ID, uint64, error) {
	if threshold <= 0 {
		threshold = DefaultGCThreshold
	}
	var stats GCStats
	var dead []chunk.ID
	fs.mu.Lock()
	if fs.gcDepth == 0 {
		fs.mu.Unlock()
		return stats, nil, 0, fmt.Errorf("store: Sweep outside a BeginGC window")
	}
	if fs.sweeping {
		fs.mu.Unlock()
		return stats, nil, 0, ErrSweepInProgress
	}
	if since != 0 && since != fs.gen {
		fs.mu.Unlock()
		return stats, nil, 0, errStaleSweep
	}
	fs.sweeping = true
	fs.gen = 0 // until this sweep completes
	sealedAt, kept := fs.sealedAt, fs.kept
	defer func() {
		fs.mu.Lock()
		fs.sweeping = false
		fs.mu.Unlock()
	}()
	if fs.off > 0 {
		if err := fs.rotateLocked(); err != nil {
			fs.mu.Unlock()
			return stats, dead, 0, err
		}
	}
	// Snapshot the sealed segments' entries. Writes racing with the
	// sweep land in the (new) active segment, which is never touched.
	// A young-only sweep takes the segments holding a young entry:
	// those from sealedAt on, and those kept's ids live in.
	keptSegs := make(map[int]bool)
	if since != 0 {
		for id := range kept {
			if loc, ok := fs.index[id]; ok {
				keptSegs[loc.seg] = true
			}
		}
	}
	bySeg := make(map[int][]idLoc)
	for id, loc := range fs.index {
		if loc.seg == fs.seg || since != 0 && loc.seg < sealedAt && !keptSegs[loc.seg] {
			continue
		}
		bySeg[loc.seg] = append(bySeg[loc.seg], idLoc{id, loc})
	}
	fs.mu.Unlock()

	segs := make([]int, 0, len(bySeg))
	for seg := range bySeg {
		segs = append(segs, seg)
	}
	sort.Ints(segs)
	for _, seg := range segs {
		// In log order: survivors keep their neighbours, and the layout
		// a sweep leaves does not depend on map iteration.
		entries := bySeg[seg]
		sort.Slice(entries, func(i, j int) bool { return entries[i].loc.off < entries[j].loc.off })
		segLive := live
		if since != 0 && seg < sealedAt {
			// Below the watermark only kept's ids are young; every other
			// entry is old, and so live. sweepSegment asks under fs.mu,
			// which guards kept.
			segLive = func(id chunk.ID) bool {
				_, young := kept[id]
				return !young || live(id)
			}
		}
		if err := fs.sweepSegment(seg, entries, segLive, threshold, &stats, &dead); err != nil {
			return stats, dead, 0, err
		}
	}
	// An empty sealed segment holds only unindexed bytes (records whose
	// cids were re-homed by an earlier crash-recovery); it was handled
	// above only if it had entries. Remove any segment file with no
	// index entries at all, active excluded.
	if since == 0 {
		if err := fs.removeOrphanSegments(bySeg, &stats); err != nil {
			return stats, dead, 0, err
		}
	}
	// The survivors get a segment of their own. Left in the active one
	// they would share a file with whatever is written next, most of
	// which (a dropped branch, a replaced table) is dead by the next
	// collection: the file falls under the threshold and every survivor
	// is copied and fsynced again, collection after collection.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if stats.Relocated > 0 && fs.off > 0 {
		if err := fs.rotateLocked(); err != nil {
			return stats, dead, 0, err
		}
	}
	// Every entry below the active segment is now one this sweep kept,
	// or one written during its window, and so protected.
	fs.sweeps++
	fs.gen, fs.sealedAt, fs.kept = fs.sweeps, fs.seg, fs.protected
	return stats, dead, fs.gen, nil
}

// sweepSegment decides the fate of one sealed segment, appending every
// id it deletes to dead. It calls live with fs.mu held.
func (fs *FileStore) sweepSegment(seg int, entries []idLoc, live func(chunk.ID) bool, threshold float64, stats *GCStats, dead *[]chunk.ID) error {
	fs.hook("plan", seg)
	// Provisional liveness under the lock, so the protected set is
	// read consistently with concurrent Puts.
	fs.mu.RLock()
	keep := make(map[chunk.ID]bool, len(entries))
	var liveBytes int64
	deadEntries := 0
	for _, e := range entries {
		k := live(e.id) || fs.protectedLocked(e.id)
		keep[e.id] = k
		if k {
			liveBytes += recordHeader + int64(e.loc.n)
		} else {
			deadEntries++
		}
	}
	fs.mu.RUnlock()
	name := segName(fs.dir, seg)
	fi, err := os.Stat(name)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	compact := liveBytes == 0 || float64(liveBytes) < threshold*float64(size)
	if !compact {
		if deadEntries == 0 && liveBytes == size {
			return nil // fully live, nothing to do
		}
		// Keep the file; just drop dead entries from the index. Their
		// bytes stay on disk until a later sweep tips the ratio. The
		// fate of each entry is re-decided under the write lock: a Put
		// may have protected it since the provisional pass.
		fs.mu.Lock()
		for _, e := range entries {
			if keep[e.id] || fs.protectedLocked(e.id) || live(e.id) {
				continue
			}
			if cur, ok := fs.index[e.id]; ok && cur.seg == seg {
				delete(fs.index, e.id)
				fs.stats.Chunks--
				fs.stats.Bytes -= int64(e.loc.n)
				stats.Reclaimed++
				*dead = append(*dead, e.id)
			}
		}
		fs.mu.Unlock()
		stats.SegmentsKept++
		return nil
	}
	// Compaction. Read the provisionally-live records outside any lock
	// (sealed segments are immutable), verifying each against its crc:
	// relocating a rotted record would silently propagate the damage.
	var bufs map[chunk.ID][]byte
	if liveBytes > 0 {
		r, err := fs.reader(seg)
		if err != nil {
			return err
		}
		bufs = make(map[chunk.ID][]byte, len(entries))
		for _, e := range entries {
			if !keep[e.id] {
				continue
			}
			rec, err := readRecordAt(r, e.loc)
			if err != nil {
				return fmt.Errorf("store: compacting seg %d: %s: %w", seg, e.id.Short(), err)
			}
			bufs[e.id] = rec
		}
	}
	// Swap: under the write lock, re-decide each entry (the protected
	// set may have grown), append live records to the log and drop dead
	// ones from the index.
	fs.mu.Lock()
	var relocated, relocatedBytes int64
	for _, e := range entries {
		cur, ok := fs.index[e.id]
		if !ok || cur.seg != seg {
			continue
		}
		if keep[e.id] || fs.protectedLocked(e.id) || live(e.id) {
			rec := bufs[e.id]
			if rec == nil {
				// Protected after the provisional pass: fetch its bytes
				// now, under the lock (rare — a dup-Put raced the sweep;
				// deadlock-free since the lock order is mu before rmu).
				r, err := fs.reader(seg)
				if err == nil {
					rec, err = readRecordAt(r, e.loc)
				}
				if err != nil {
					fs.mu.Unlock()
					return fmt.Errorf("store: compacting seg %d: %s: %w", seg, e.id.Short(), err)
				}
			}
			if err := fs.appendLocked(e.id, chunk.Type(rec[recordHeader]), rec[recordHeader+1:]); err != nil {
				fs.mu.Unlock()
				return err
			}
			fs.unpinned = true
			relocated++
			relocatedBytes += int64(len(rec))
			if fs.off >= fs.maxSeg {
				if err := fs.rotateLocked(); err != nil {
					fs.mu.Unlock()
					return err
				}
			}
		} else {
			delete(fs.index, e.id)
			fs.stats.Chunks--
			fs.stats.Bytes -= int64(e.loc.n)
			stats.Reclaimed++
			*dead = append(*dead, e.id)
		}
	}
	fs.mu.Unlock()
	// Relocations are appended but possibly still buffered: the crash
	// harness snapshots here to model a kill before the barrier (the
	// old segment is still intact, so nothing is lost).
	fs.hook("appended", seg)
	// Durability barrier: the relocated copies must be on disk before
	// the only other copy of them disappears.
	fs.mu.Lock()
	if err := fs.w.Flush(); err != nil {
		fs.mu.Unlock()
		return fmt.Errorf("store: %w", err)
	}
	fs.flushed = fs.off
	//forkvet:allow lockhold — durability barrier: the relocated copies must hit disk before the old segment (their only other copy) is unlinked, and fs.mu keeps writers off the active segment meanwhile
	if err := fs.active.Sync(); err != nil {
		fs.mu.Unlock()
		return fmt.Errorf("store: %w", err)
	}
	fs.hook("synced", fs.seg)
	fs.unpinned = false
	fs.syncDirLocked() // the copies' segment may be new: its entry must outlive the unlink
	fs.mu.Unlock()
	fs.hook("relocated", seg)
	fs.dropReader(seg)
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A Get racing the drop above can have re-opened the file before
	// the unlink; drop again now that re-opening is impossible, or the
	// straggler handle (and the unlinked file's blocks) would linger
	// until Close. The racing Get's read either completes on the open
	// fd or fails and retries through the updated index.
	fs.dropReader(seg)
	fs.hook("unlinked", seg)
	stats.SegmentsCompacted++
	stats.Relocated += int(relocated)
	stats.RelocatedBytes += relocatedBytes
	stats.ReclaimedBytes += size - relocatedBytes
	return nil
}

// removeOrphanSegments unlinks sealed segment files no index entry
// points into (every record in them is a duplicate or dead).
func (fs *FileStore) removeOrphanSegments(swept map[int][]idLoc, stats *GCStats) error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fs.mu.RLock()
	active := fs.seg
	used := make(map[int]bool)
	for _, loc := range fs.index {
		used[loc.seg] = true
	}
	fs.mu.RUnlock()
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.log", &n); err != nil {
			continue
		}
		// Only segments strictly older than the active one at snapshot
		// time are candidates: a concurrent Put may rotate to a NEWER
		// segment (absent from the used snapshot) while this loop runs,
		// and crash-left orphans are always older than the append point.
		if n >= active || used[n] {
			continue
		}
		if _, hadEntries := swept[n]; hadEntries {
			continue // sweepSegment already decided this one
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		fs.dropReader(n)
		if err := os.Remove(segName(fs.dir, n)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		fs.dropReader(n) // close any handle a racing Get re-opened pre-unlink
		stats.SegmentsCompacted++
		stats.ReclaimedBytes += fi.Size()
	}
	return nil
}

// readRecordAt fetches one full record (header + body) and verifies
// its crc.
func readRecordAt(r *os.File, loc location) ([]byte, error) {
	rec := make([]byte, recordHeader+loc.n)
	if _, err := r.ReadAt(rec, loc.off-recordHeader); err != nil {
		return nil, err
	}
	if crc := binary.LittleEndian.Uint32(rec[0:4]); crc32.ChecksumIEEE(rec[recordHeader:]) != crc {
		return nil, fmt.Errorf("%w: crc mismatch at seg offset %d", ErrCorrupt, loc.off)
	}
	return rec, nil
}

// dropReader closes and forgets the shared read handle of a segment
// about to be unlinked.
func (fs *FileStore) dropReader(seg int) {
	fs.rmu.Lock()
	if f, ok := fs.readers[seg]; ok {
		f.Close()
		delete(fs.readers, seg)
	}
	fs.rmu.Unlock()
}
