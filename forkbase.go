// Package forkbase is a Go implementation of ForkBase, the storage
// engine for blockchain and forkable applications described in
//
//	Wang et al., "ForkBase: An Efficient Storage Engine for Blockchain
//	and Forkable Applications", VLDB 2018.
//
// ForkBase extends the key-value model with three properties that
// modern applications otherwise rebuild ad hoc:
//
//   - Data versioning: every Put creates a new immutable version; the
//     full evolution history of each key is retained and queryable.
//   - Fork semantics: both fork-on-demand (named branches, as in git)
//     and fork-on-conflict (implicit sibling versions under concurrent
//     updates, as in blockchains and weakly consistent stores).
//   - Tamper evidence: a version's UID is a cryptographic digest that
//     commits to the value and its entire derivation history.
//
// Large values (Blob, List, Map, Set) are stored as POS-Trees —
// pattern-oriented-split trees that combine content-defined chunking, a
// Merkle tree and a B+-tree — giving fine-grained access, fast diffs,
// and chunk-level deduplication across versions and objects.
//
// # Quick start
//
// All access goes through the unified Store API (client.go), which the
// embedded DB and the distributed ClusterClient both implement:
//
//	ctx := context.Background()
//	db := forkbase.Open()
//	db.Put(ctx, "my key", forkbase.NewBlob([]byte("my value")))
//	db.Fork(ctx, "my key", "new branch")
//	obj, _ := db.Get(ctx, "my key", forkbase.WithBranch("new branch"))
//	v, _ := db.Value(ctx, "my key", obj)
//	blob, _ := forkbase.AsBlob(v)
//	blob.Remove(0, 10)
//	blob.Append([]byte("some more"))
//	db.Put(ctx, "my key", blob, forkbase.WithBranch("new branch"))
package forkbase

import (
	"context"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/merge"
	"forkbase/internal/obs"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// ParseUID decodes the 64-character hexadecimal form of a UID.
func ParseUID(s string) (UID, error) { return chunk.ParseID(s) }

// Re-exported value types. Primitive types (String, Int, Float, Bool,
// Tuple) are embedded in the version record; chunkable types (Blob,
// List, Map, Set) are POS-Trees fetched on demand.
type (
	// Value is any ForkBase value.
	Value = types.Value
	// String is a primitive byte string.
	String = types.String
	// Int is a primitive 64-bit integer.
	Int = types.Int
	// Float is a primitive 64-bit float.
	Float = types.Float
	// Bool is a primitive boolean.
	Bool = types.Bool
	// Tuple is a primitive ordered field collection.
	Tuple = types.Tuple
	// Blob is a chunkable byte sequence.
	Blob = types.Blob
	// List is a chunkable element sequence.
	List = types.List
	// Map is a chunkable sorted key-value collection.
	Map = types.Map
	// Set is a chunkable sorted element collection.
	Set = types.Set
	// FObject is one version of an object: its value plus derivation
	// metadata (paper Figure 2).
	FObject = types.FObject
	// UID is a tamper-evident version identifier.
	UID = types.UID
	// TaggedBranch pairs a branch name and its head version.
	TaggedBranch = branch.TaggedBranch
	// Conflict is one unresolved difference from a merge.
	Conflict = merge.Conflict
	// Resolver resolves merge conflicts; see ChooseA, ChooseB,
	// Append, Aggregate for built-ins.
	Resolver = merge.Resolver
	// Diff is the result of comparing two versions.
	Diff = core.Diff
	// StoreStats reports chunk-storage counters.
	StoreStats = store.Stats
	// GCStats reports one garbage collection's effect.
	GCStats = store.GCStats
	// MetaStats reports the metadata journal's footprint.
	MetaStats = branch.JournalStats
	// KV is a key-value pair for Map batch updates.
	KV = postree.KV
)

// Tuple codecs, exposed for applications that store Tuples inside
// chunkable collections (e.g. records in a Map).
var (
	// EncodeTuple serializes a Tuple to bytes.
	EncodeTuple = types.EncodeTuple
	// DecodeTuple parses a serialized Tuple.
	DecodeTuple = types.DecodeTuple
)

// Constructors for fresh chunkable values.
var (
	// NewBlob returns a Blob staging the given bytes.
	NewBlob = types.NewBlob
	// NewMap returns an empty Map.
	NewMap = types.NewMap
	// NewList returns a List staging the given elements.
	NewList = types.NewList
	// NewSet returns a Set staging the given elements.
	NewSet = types.NewSet
)

// Built-in conflict resolvers (§4.5.2).
var (
	// ChooseA keeps the target branch's value.
	ChooseA = merge.ChooseA
	// ChooseB keeps the reference branch's value.
	ChooseB = merge.ChooseB
	// AppendResolve concatenates both values.
	AppendResolve = merge.Append
	// Aggregate sums integer deltas from the base.
	Aggregate = merge.Aggregate
)

// Sentinel errors.
var (
	// ErrKeyNotFound reports an unknown key.
	ErrKeyNotFound = core.ErrKeyNotFound
	// ErrBranchNotFound reports an unknown branch.
	ErrBranchNotFound = branch.ErrBranchNotFound
	// ErrBranchExists reports a branch-name collision on Fork/Rename.
	ErrBranchExists = branch.ErrBranchExists
	// ErrGuardFailed reports a guarded Put that lost a race.
	ErrGuardFailed = branch.ErrGuardFailed
	// ErrConflict reports unresolved merge conflicts.
	ErrConflict = merge.ErrConflict
	// ErrCorrupt reports a chunk that failed an integrity check on
	// read (crc mismatch on disk, or content not hashing to its cid).
	ErrCorrupt = store.ErrCorrupt
	// ErrNotCollectable reports a GC call against a store whose
	// bottom layer cannot reclaim chunks.
	ErrNotCollectable = store.ErrNotCollectable
	// ErrBadOptions reports an option combination a call cannot satisfy
	// (e.g. Put with both WithBranch and WithBase).
	ErrBadOptions = core.ErrBadOptions
	// ErrUnsupported reports a request the remote peer does not serve:
	// a proxy backend (a cluster, another RemoteStore) asked for chunk
	// ops, or for the storage counters RemoteStore.Stats reads.
	ErrUnsupported = wire.ErrUnsupported
)

// DefaultBranch is the branch used by the single-argument Get/Put.
const DefaultBranch = branch.DefaultBranch

// DB is an embedded ForkBase instance. It implements Store; see
// client.go for the unified API surface.
type DB struct {
	frontend // the Store methods, over db itself
	contract // the engine and ACL most ops run on (policy.go)

	jrnl *branch.Journal // metadata journal; nil for in-memory stores

	gcThreshold float64 // segment compaction threshold (0 = default)
	autoGC      autoGC  // run GC after every n-th branch removal

	// reg is the engine/store metric registry (see metrics.go); the
	// two histograms it owns that the engine feeds directly are cached
	// here so the hot paths skip the registry lookup.
	reg        *obs.Registry
	gcPause    *obs.Histogram
	fsyncHist  *obs.Histogram
	chunkFsync *obs.Histogram
}

// initMetrics builds the DB's registry and its engine-fed histograms.
// Sampled gauges close over db and only run at snapshot time, so
// calling this before eng/jrnl are assigned is safe.
func (db *DB) initMetrics() {
	db.reg = newDBMetrics(db)
	db.gcPause = db.reg.Histogram("forkbase_gc_pause_ns", "")
	db.fsyncHist = db.reg.Histogram("forkbase_journal_fsync_ns", "")
	db.chunkFsync = db.reg.Histogram("forkbase_chunklog_fsync_ns", "")
}

// Options configures Open/OpenPath. A literal Options value can be
// passed directly (it implements OpenOption, replacing the whole
// option set), or individual knobs can be applied with WithCacheBytes,
// WithVerifyReads and friends.
type Options struct {
	// ChunkSizeLog2 sets the expected POS-Tree chunk size to
	// 2^ChunkSizeLog2 bytes; 0 means the paper default of 4 KB.
	ChunkSizeLog2 uint
	// SegmentSize rotates the chunk log when the active segment
	// exceeds this many bytes (file-backed stores only); 0 means the
	// store default of 64 MiB.
	SegmentSize int64
	// CacheBytes bounds an in-memory chunk cache on the read path; 0
	// disables caching. The budget charges each entry its bytes plus a
	// fixed per-entry cost (about 128 bytes), so it bounds memory for
	// small chunks too, and under the same pressure a small chunk
	// outlives a leaf-sized one. See store.Cache for what it saves per
	// backend.
	CacheBytes int64
	// VerifyReads rehashes (sha256) every chunk read below the cache
	// and compares it with its cid, turning substituted or rotted
	// content into store.ErrCorrupt. Without it a file-backed store
	// checks each record's crc32 and trusts its own index for the id.
	VerifyReads bool
	// ACL, when set, routes every call through the access controller;
	// pair it with WithUser. Nil means open mode (the embedded
	// single-user default).
	ACL *ACL
	// GCThreshold is the live ratio below which GC compacts a sealed
	// log segment (file-backed stores); 0 means the store default of
	// 0.5 — segments more than half garbage are rewritten.
	GCThreshold float64
	// AutoGCEvery, when positive, runs a full collection automatically
	// after every AutoGCEvery successful RemoveBranch calls — the
	// operation that turns reachable versions into garbage. 0 leaves
	// collection entirely to explicit GC calls.
	AutoGCEvery int
	// MetaSync makes every acknowledged write survive a power loss
	// (file-backed stores only): each journal flush, one per mutation
	// or batch, fsyncs the chunk log once, then the journal. Default
	// false: both reach the operating system before a call returns, so
	// a killed process loses nothing it acknowledged; a power loss can.
	MetaSync bool
	// SnapshotEvery is the number of journaled metadata mutations
	// between snapshot+truncate compactions of the journal (file-backed
	// stores only). 0 means the default: at least 4096 mutations and a
	// journal as large as the last snapshot; negative disables
	// compaction, letting the journal grow until the store is reopened.
	SnapshotEvery int
}

// OpenOption configures Open/OpenPath: either a full Options literal
// or one of the With* open options.
type OpenOption interface {
	applyOpen(*Options)
}

func (o Options) applyOpen(dst *Options) { *dst = o }

type openOptionFunc func(*Options)

func (f openOptionFunc) applyOpen(o *Options) { f(o) }

// WithCacheBytes enables a chunk cache of up to n bytes in front of
// the store's read path. The budget charges each entry its bytes plus
// a fixed per-entry cost (about 128 bytes), and under the same
// pressure a small chunk outlives a leaf-sized one.
func WithCacheBytes(n int64) OpenOption {
	return openOptionFunc(func(o *Options) { o.CacheBytes = n })
}

// WithVerifyReads toggles rehashing every chunk read against its
// content identifier; see Options.VerifyReads.
func WithVerifyReads(on bool) OpenOption {
	return openOptionFunc(func(o *Options) { o.VerifyReads = on })
}

// WithGCThreshold sets the live ratio below which GC compacts a sealed
// log segment. 0.5 (the default) rewrites segments more than half
// garbage; higher values compact more aggressively, trading write
// amplification for disk space.
func WithGCThreshold(ratio float64) OpenOption {
	return openOptionFunc(func(o *Options) { o.GCThreshold = ratio })
}

// WithAutoGC runs a full collection automatically after every n
// successful branch removals; see Options.AutoGCEvery. Safe on
// reopened persistent stores: OpenPath recovers every branch, untagged
// head and pin from the metadata journal, so the roots a collection
// sees after reopen are exactly the roots the previous process held.
func WithAutoGC(n int) OpenOption {
	return openOptionFunc(func(o *Options) { o.AutoGCEvery = n })
}

// WithMetaSync makes every acknowledged write survive a power loss;
// see Options.MetaSync.
func WithMetaSync(on bool) OpenOption {
	return openOptionFunc(func(o *Options) { o.MetaSync = on })
}

// WithSnapshotEvery compacts the metadata journal (full snapshot, then
// WAL truncate) after every n journaled mutations; see
// Options.SnapshotEvery.
func WithSnapshotEvery(n int) OpenOption {
	return openOptionFunc(func(o *Options) { o.SnapshotEvery = n })
}

func resolveOpenOpts(opts []OpenOption) Options {
	var o Options
	for _, op := range opts {
		op.applyOpen(&o)
	}
	return o
}

func (o Options) treeConfig() postree.Config {
	cfg := postree.DefaultConfig()
	if o.ChunkSizeLog2 != 0 {
		cfg.LeafQ = o.ChunkSizeLog2
	}
	return cfg
}

// wrapStore stacks the read-path layers onto a base store: integrity
// enforcement below, cache on top, so a chunk is verified once — when
// it enters the cache — and hits skip both the check and the backend.
func (o Options) wrapStore(s store.Store) store.Store {
	if o.VerifyReads {
		s = store.Verified(s)
	}
	if o.CacheBytes > 0 {
		s = store.NewCache(s, o.CacheBytes)
	}
	return s
}

// Open returns an in-memory ForkBase instance.
func Open(opts ...OpenOption) *DB {
	o := resolveOpenOpts(opts)
	db := &DB{
		contract:    contract{core.NewEngine(o.wrapStore(store.NewMemStore()), o.treeConfig()), o.ACL},
		gcThreshold: o.GCThreshold,
		autoGC:      autoGC{every: o.AutoGCEvery},
	}
	db.frontend = frontend{db}
	db.initMetrics()
	return db
}

// OpenPath returns a ForkBase instance persisted in dir using the
// log-structured chunk store. Beside the chunk log, dir holds the
// metadata journal (meta.wal + meta.snap): every branch and pin
// mutation is recorded durably, so reopening the directory recovers
// all tagged branches, untagged heads and pins — and a GC run on the
// reopened store sees the same roots the previous process did. The
// journal obeys write-ahead ordering against the chunk log (the log is
// flushed, or under MetaSync fsynced, before a head naming its chunks
// is recorded), so a recovered head always resolves.
func OpenPath(dir string, opts ...OpenOption) (*DB, error) {
	o := resolveOpenOpts(opts)
	fs, err := store.OpenFileStore(dir, store.FileStoreOptions{SegmentSize: o.SegmentSize})
	if err != nil {
		return nil, err
	}
	db := &DB{
		contract:    contract{acl: o.ACL},
		gcThreshold: o.GCThreshold,
		autoGC:      autoGC{every: o.AutoGCEvery},
	}
	db.frontend = frontend{db}
	db.initMetrics()
	barrier := fs.Flush
	if o.MetaSync {
		barrier = func() error { return fs.Sync(db.chunkFsync) }
	}
	j, err := branch.OpenJournal(dir, branch.JournalOptions{
		Sync:          o.MetaSync,
		SnapshotEvery: o.SnapshotEvery,
		Barrier:       barrier,
		FsyncHist:     db.fsyncHist,
	})
	if err != nil {
		fs.Close()
		return nil, err
	}
	db.jrnl = j
	db.eng = core.NewEngine(o.wrapStore(fs), o.treeConfig())
	db.eng.Recover(j)
	return db, nil
}

// NewDBOn builds a DB over an arbitrary chunk store; used by the
// cluster layer and by tests.
func NewDBOn(s store.Store, cfg postree.Config) *DB {
	db := &DB{contract: contract{eng: core.NewEngine(s, cfg)}}
	db.frontend = frontend{db}
	db.initMetrics()
	return db
}

// Close releases the underlying store and metadata journal.
func (db *DB) Close() error {
	err := db.eng.Store().Close()
	if db.jrnl != nil {
		if jerr := db.jrnl.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// MetaStats reports the metadata journal's footprint (WAL and snapshot
// sizes, pending replay length) and recovered contents. ok is false
// for in-memory stores, which keep no journal.
func (db *DB) MetaStats() (MetaStats, bool) {
	if db.jrnl == nil {
		return MetaStats{}, false
	}
	return db.jrnl.Stats(), true
}

// CompactMeta forces a snapshot+truncate compaction of the metadata
// journal, independent of the WithSnapshotEvery cadence. A no-op
// (nil) on in-memory stores.
func (db *DB) CompactMeta() error {
	if db.jrnl == nil {
		return nil
	}
	return db.jrnl.Compact()
}

// Engine exposes the underlying engine for advanced integrations
// (cluster layer, benchmarks).
func (db *DB) Engine() *core.Engine { return db.eng }

// Stats returns chunk-storage counters, including deduplication rates.
func (db *DB) Stats() StoreStats { return db.eng.Store().Stats() }

// LCA returns the least common ancestor of two versions (M17).
func (db *DB) LCA(uid1, uid2 UID) (*FObject, error) {
	return db.eng.LCA(bg(), uid1, uid2)
}

// BlobOf decodes an FObject known to hold a Blob.
func (db *DB) BlobOf(o *FObject) (*Blob, error) {
	v, err := db.eng.Value(o)
	if err != nil {
		return nil, err
	}
	return AsBlob(v)
}

// MapOf decodes an FObject known to hold a Map.
func (db *DB) MapOf(o *FObject) (*Map, error) {
	v, err := db.eng.Value(o)
	if err != nil {
		return nil, err
	}
	return AsMap(v)
}

// ListOf decodes an FObject known to hold a List.
func (db *DB) ListOf(o *FObject) (*List, error) {
	v, err := db.eng.Value(o)
	if err != nil {
		return nil, err
	}
	return AsList(v)
}

// SetOf decodes an FObject known to hold a Set.
func (db *DB) SetOf(o *FObject) (*Set, error) {
	v, err := db.eng.Value(o)
	if err != nil {
		return nil, err
	}
	return AsSet(v)
}

// VerifyHistory verifies the hash chain from a version back to its
// first ancestor and returns the number of versions checked (§3.2).
func (db *DB) VerifyHistory(o *FObject) (int, error) {
	return o.VerifyHistory(db.eng.Store())
}

// bg is the root context behind LCA, the one engine walk still exposed
// without a ctx parameter.
//
//forkvet:allow ctxflow — context-free API surface; LCA predates cancellation in the API
func bg() context.Context { return context.Background() }
