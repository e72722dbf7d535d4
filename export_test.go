package forkbase

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// DropChunkCacheForTest replaces the client chunk cache with an empty
// one, simulating a cache that lost its contents between attaching a
// value handle and reading it (a cleaned cache directory, a collected
// cache). Handle reads after this must take the lazy-fetch path.
func (rs *RemoteStore) DropChunkCacheForTest() {
	if rs.local != nil {
		old := rs.local
		rs.local = store.NewCache(store.NewMemStore(), 64<<20)
		old.Close()
	}
}

// ChunkCacheStatsForTest reports what the client chunk cache holds.
func (rs *RemoteStore) ChunkCacheStatsForTest() store.Stats { return rs.local.Stats() }

// ChunkStoreReads counts the reads a client makes of its own chunk
// store: Gets open a chunk, Hases only ask about one.
type ChunkStoreReads struct {
	store.Store
	Gets, Hases atomic.Int64
}

func (c *ChunkStoreReads) Get(id chunk.ID) (*chunk.Chunk, error) {
	c.Gets.Add(1)
	return c.Store.Get(id)
}

func (c *ChunkStoreReads) Has(id chunk.ID) bool {
	c.Hases.Add(1)
	return c.Store.Has(id)
}

// CountChunkStoreReadsForTest puts a read counter in front of the
// client chunk store. Call it before the client is shared.
func (rs *RemoteStore) CountChunkStoreReadsForTest() *ChunkStoreReads {
	c := &ChunkStoreReads{Store: rs.local}
	rs.local = c
	return c
}

// ConnShieldsForTest counts the chunk ids the server's live
// connections hold shielded for chunked puts still being negotiated.
func (s *Server) ConnShieldsForTest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for sc := range s.conns {
		sc.shieldMu.Lock()
		for _, set := range sc.shields {
			n += len(set)
		}
		sc.shieldMu.Unlock()
	}
	return n
}

// ShieldedForTest reports whether the engine holds a GC shield on id.
func (db *DB) ShieldedForTest(id chunk.ID) bool { return db.eng.Shielded(id) }

// ChunkStoreForTest returns the engine's chunk store stack.
func (db *DB) ChunkStoreForTest() store.Store { return db.eng.Store() }

// SetRootsHookForTest parks every collection inside its root
// enumeration, after the shields are read and before the heads are,
// for as long as f runs.
func (db *DB) SetRootsHookForTest(f func()) { db.eng.SetRootsHookForTest(f) }

// WrapJournalBarrierForTest replaces the metadata journal's
// write-ahead barrier with wrap applied to the current one: the point
// of every journal flush before its records reach the file.
func (db *DB) WrapJournalBarrierForTest(wrap func(barrier func() error) func() error) {
	db.jrnl.SetBarrierForTest(wrap)
}

// SetCrashHooksForTest installs the crash-consistency hooks of the
// DB's chunk log and metadata journal (see store.FileStore and
// branch.Journal). The DB must be file-backed, without a chunk cache
// or read verification, so that its store is the FileStore itself.
func (db *DB) SetCrashHooksForTest(chunkLog func(event string, seg int), journal func(event string)) {
	db.eng.Store().(*store.FileStore).SetCrashHookForTest(chunkLog)
	db.jrnl.SetCrashHookForTest(journal)
}

// ForgetGCForTest drops what the collector kept from the last
// collection, so that the next one marks and sweeps everything.
func (db *DB) ForgetGCForTest() { db.eng.ForgetGCForTest() }

// StagedChunksForTest counts the chunks the client created and the
// server has not acknowledged.
func (rs *RemoteStore) StagedChunksForTest() int {
	rs.stagedMu.Lock()
	defer rs.stagedMu.Unlock()
	return len(rs.staged)
}

// SetHelloTimeoutForTest shortens the Hello deadline of connections
// accepted from now on, and returns the restore. Set it before the
// server starts and restore it after the server has closed.
func SetHelloTimeoutForTest(d time.Duration) (restore func()) {
	old := helloTimeout
	helloTimeout = d
	return func() { helloTimeout = old }
}

// ServedForTest reports whether op has a row in the server's op table.
func ServedForTest(op uint8) bool { return served(op) }

// SocketWrites records a client's socket writes: for each write, the
// ops of the frames it completed.
type SocketWrites struct {
	mu     sync.Mutex
	tail   []byte // the start of a frame no write has completed yet
	writes [][]uint8
}

func (s *SocketWrites) add(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tail = append(s.tail, p...)
	var ops []uint8
	for len(s.tail) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(s.tail))
		if len(s.tail) < n {
			break
		}
		ops = append(ops, s.tail[4+8]) // after the length and request id
		s.tail = s.tail[n:]
	}
	s.writes = append(s.writes, ops)
}

// Take returns the writes recorded since the last Take.
func (s *SocketWrites) Take() [][]uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.writes
	s.writes = nil
	return w
}

type recordingWriter struct {
	w   io.Writer
	rec *SocketWrites
}

func (r recordingWriter) Write(p []byte) (int, error) {
	r.rec.add(p)
	return r.w.Write(p)
}

// RecordSocketWritesForTest puts a recorder in front of the sockets of
// the client's live connections. Call it while no call is in flight.
func (rs *RemoteStore) RecordSocketWritesForTest() *SocketWrites {
	rec := &SocketWrites{}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, c := range rs.conns {
		if c != nil {
			c.fw.mu.Lock()
			c.fw.w = recordingWriter{w: c.fw.w, rec: rec}
			c.fw.mu.Unlock()
		}
	}
	return rec
}

// FrameWriterForTest is a connection's frame writer over w; busy
// stands in for its owner's report of another request in flight.
type FrameWriterForTest struct{ fw *frameWriter }

func NewFrameWriterForTest(w io.Writer, busy func() bool) FrameWriterForTest {
	return FrameWriterForTest{newFrameWriter(w, nil, nil, busy)}
}

func (f FrameWriterForTest) WriteFrame(reqID uint64, op uint8, payload []byte) error {
	return f.fw.writeFrame(reqID, op, payload)
}

// Yields counts the writes that yielded before claiming the flush.
func (f FrameWriterForTest) Yields() int {
	f.fw.mu.Lock()
	defer f.fw.mu.Unlock()
	return f.fw.yields
}
