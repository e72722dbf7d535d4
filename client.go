package forkbase

import (
	"context"
	"time"

	"forkbase/internal/branch"
	"forkbase/internal/core"
	"forkbase/internal/servlet"
)

// Store is the unified ForkBase client API. Every deployment mode —
// the embedded *DB, the simulated-cluster ClusterClient, and any
// future RPC client — implements this one surface, so applications
// written against it move between deployment modes without change;
// the paper's architecture (§4.1) serves all of them through the same
// dispatcher → access controller → branch table → object manager
// pipeline.
//
// The interface collapses the M1–M17 operations of paper Table 1 into
// orthogonal calls whose variants are selected by functional options:
//
//	Get(ctx, key)                          M1 (default branch)
//	Get(ctx, key, WithBranch(b))           M1
//	Get(ctx, key, WithBase(uid))           M2
//	Put(ctx, key, v, WithBranch(b))        M3
//	Put(ctx, key, v, WithBase(uid))        M4 (fork-on-conflict)
//	Put(ctx, key, v, WithGuard(uid))       guarded Put (§4.5.1)
//	Merge(ctx, key, tgt, WithBranch(b))    M5
//	Merge(ctx, key, tgt, WithBase(uid))    M6
//	Merge(ctx, key, "", WithBase(u1), WithBase(u2))  M7
//	ListKeys(ctx)                          M8
//	ListBranches(ctx, key)                 M9 + M10
//	Fork(ctx, key, nb, WithBranch(b))      M11
//	Fork(ctx, key, nb, WithBase(uid))      M12
//	RenameBranch(ctx, key, b, nb)          M13
//	RemoveBranch(ctx, key, b)              M14
//	Track(ctx, key, from, to)              M15
//	Track(ctx, key, from, to, WithBase(u)) M16
//
// Every call takes a context honoured before (and, where the backend
// allows, during) execution, and WithUser routes the call through the
// access controller; stores without a configured ACL run in open mode
// and admit everything.
type Store interface {
	// Get reads a branch head (M1) or, with WithBase, a pinned
	// version (M2), verifying it against its uid.
	Get(ctx context.Context, key string, opts ...Option) (*FObject, error)
	// Put writes a new version and returns its uid: to a branch head
	// (M3), conditionally with WithGuard, or deriving from an explicit
	// base with WithBase (M4, fork-on-conflict). WithMeta attaches
	// application metadata to the version.
	Put(ctx context.Context, key string, v Value, opts ...Option) (UID, error)
	// Apply executes a Batch, amortizing per-write locking and
	// dispatch; see Batch for grouping and atomicity semantics.
	// Options apply to the whole batch (notably WithUser).
	Apply(ctx context.Context, b *Batch, opts ...Option) ([]UID, error)
	// Fork creates newBranch at a reference branch's head (M11) or,
	// with WithBase, at an arbitrary version (M12).
	Fork(ctx context.Context, key, newBranch string, opts ...Option) error
	// Merge merges a reference — WithBranch's head (M5) or WithBase's
	// version (M6) — into tgtBranch, resolving conflicts with
	// WithResolver. With an empty tgtBranch and two or more WithBase
	// versions it merges untagged heads (M7).
	Merge(ctx context.Context, key, tgtBranch string, opts ...Option) (UID, []Conflict, error)
	// Track returns versions at derivation distances [from, to] behind
	// a branch head (M15) or, with WithBase, behind a version (M16).
	Track(ctx context.Context, key string, from, to int, opts ...Option) ([]*FObject, error)
	// Diff compares two versions of key of the same type.
	Diff(ctx context.Context, key string, a, b UID, opts ...Option) (*Diff, error)
	// ListKeys returns all keys (M8); under a closed ACL it requires
	// global read permission.
	ListKeys(ctx context.Context, opts ...Option) ([]string, error)
	// ListBranches returns a key's tagged branches and untagged heads
	// (M9 + M10).
	ListBranches(ctx context.Context, key string, opts ...Option) (BranchList, error)
	// RenameBranch renames a tagged branch (M13); admin permission.
	RenameBranch(ctx context.Context, key, branchName, newName string, opts ...Option) error
	// RemoveBranch drops a branch name (M14); versions stay reachable
	// by uid until a GC collects them. Admin permission.
	RemoveBranch(ctx context.Context, key, branchName string, opts ...Option) error
	// Pin protects a version of key — and everything it reaches: its
	// value chunks and full derivation history — from garbage
	// collection, independent of the branch tables. A client holding
	// a version only by uid (e.g. after RemoveBranch dropped the last
	// branch over it) pins it to keep deriving from it safe across
	// collections, the way git requires a ref before gc. Write
	// permission on key.
	Pin(ctx context.Context, key string, uid UID, opts ...Option) error
	// Unpin removes a Pin; the version stays alive only while a
	// branch or another pin still reaches it. Write permission on key.
	Unpin(ctx context.Context, key string, uid UID, opts ...Option) error
	// GC reclaims every chunk unreachable from the live roots — any
	// tagged branch head, untagged fork-on-conflict head or pinned
	// version, on any key — and compacts the physical storage behind
	// them. Reads and writes proceed concurrently; versions written
	// during the collection are never reclaimed. Admin permission
	// under a closed ACL. Stores that cannot reclaim space return
	// ErrNotCollectable.
	GC(ctx context.Context, opts ...Option) (GCStats, error)
	// Value decodes an FObject fetched from this store. key locates
	// the chunks (the cluster routes it to the owning servlet).
	Value(ctx context.Context, key string, o *FObject, opts ...Option) (Value, error)
	// Close releases the store's resources.
	Close() error
}

// BranchList is a key's branch table as seen by clients: the named
// branches (M9) and the untagged fork-on-conflict heads (M10) — more
// than one untagged head means unresolved siblings.
type BranchList struct {
	Tagged   []TaggedBranch
	Untagged []UID
}

// Access control, shared by every Store implementation: one
// branch-based controller (§4.1) consulted by the policy layer
// (policy.go) whichever deployment mode runs the call; a nil/absent
// ACL means open mode.
type (
	// ACL is a branch-based access controller; see NewACL.
	ACL = servlet.ACL
	// Permission is an access level; higher levels include lower ones.
	Permission = servlet.Permission
)

// Permission levels.
const (
	PermNone  = servlet.PermNone
	PermRead  = servlet.PermRead
	PermWrite = servlet.PermWrite
	PermAdmin = servlet.PermAdmin
)

// NewACL returns an access controller; open=true admits everything.
var NewACL = servlet.NewACL

// ErrAccessDenied is returned when the access controller rejects a
// call before execution.
var ErrAccessDenied = servlet.ErrAccessDenied

// AsBlob asserts that a decoded Value is a Blob.
func AsBlob(v Value) (*Blob, error) {
	b, ok := v.(*Blob)
	if !ok {
		return nil, core.ErrTypeMismatch
	}
	return b, nil
}

// AsMap asserts that a decoded Value is a Map.
func AsMap(v Value) (*Map, error) {
	m, ok := v.(*Map)
	if !ok {
		return nil, core.ErrTypeMismatch
	}
	return m, nil
}

// AsList asserts that a decoded Value is a List.
func AsList(v Value) (*List, error) {
	l, ok := v.(*List)
	if !ok {
		return nil, core.ErrTypeMismatch
	}
	return l, nil
}

// AsSet asserts that a decoded Value is a Set.
func AsSet(v Value) (*Set, error) {
	s, ok := v.(*Set)
	if !ok {
		return nil, core.ErrTypeMismatch
	}
	return s, nil
}

// --- one Store surface over three backends ----------------------------

// backend is a deployment mode's implementation of the Store ops, each
// called with its options already resolved: *DB runs the contract
// (policy.go) on the embedded engine, *ClusterClient on the owning
// servlet's, and *RemoteStore sends the op over the wire. The Store
// methods are written once, on frontend, and the Server calls a
// backend with the options it decoded, so neither folds an option list
// a second time. Options travel by value: a pointer through the
// interface would move the server's decoded request to the heap.
type backend interface {
	get(ctx context.Context, key string, o callOpts) (*FObject, error)
	// put's scope is the journal scope of a run of Puts the server
	// answers on a local DB's read loop, and nil anywhere else.
	put(ctx context.Context, key string, v Value, scope *branch.Batch, o callOpts) (UID, error)
	apply(ctx context.Context, b *Batch, o callOpts) ([]UID, error)
	fork(ctx context.Context, key, newBranch string, o callOpts) error
	merge(ctx context.Context, key, tgtBranch string, o callOpts) (UID, []Conflict, error)
	track(ctx context.Context, key string, from, to int, o callOpts) ([]*FObject, error)
	diff(ctx context.Context, key string, a, b UID, o callOpts) (*Diff, error)
	listKeys(ctx context.Context, o callOpts) ([]string, error)
	listBranches(ctx context.Context, key string, o callOpts) (BranchList, error)
	renameBranch(ctx context.Context, key, branchName, newName string, o callOpts) error
	removeBranch(ctx context.Context, key, branchName string, o callOpts) error
	// pin is Pin with on and Unpin without.
	pin(ctx context.Context, key string, uid UID, on bool, o callOpts) error
	gc(ctx context.Context, o callOpts) (GCStats, error)
	value(ctx context.Context, key string, obj *FObject, o callOpts) (Value, error)
}

// frontend is the Store API, written once for every deployment mode:
// each method folds its options and makes one backend call. *DB,
// *ClusterClient and *RemoteStore embed it over themselves.
type frontend struct{ be backend }

// Get implements Store.
func (f *frontend) Get(ctx context.Context, key string, opts ...Option) (*FObject, error) {
	return f.be.get(ctx, key, resolveOpts(opts))
}

// Put implements Store.
func (f *frontend) Put(ctx context.Context, key string, v Value, opts ...Option) (UID, error) {
	return f.be.put(ctx, key, v, nil, resolveOpts(opts))
}

// Apply implements Store.
func (f *frontend) Apply(ctx context.Context, b *Batch, opts ...Option) ([]UID, error) {
	return f.be.apply(ctx, b, resolveOpts(opts))
}

// Fork implements Store.
func (f *frontend) Fork(ctx context.Context, key, newBranch string, opts ...Option) error {
	return f.be.fork(ctx, key, newBranch, resolveOpts(opts))
}

// Merge implements Store.
func (f *frontend) Merge(ctx context.Context, key, tgtBranch string, opts ...Option) (UID, []Conflict, error) {
	return f.be.merge(ctx, key, tgtBranch, resolveOpts(opts))
}

// Track implements Store.
func (f *frontend) Track(ctx context.Context, key string, from, to int, opts ...Option) ([]*FObject, error) {
	return f.be.track(ctx, key, from, to, resolveOpts(opts))
}

// Diff implements Store.
func (f *frontend) Diff(ctx context.Context, key string, a, b UID, opts ...Option) (*Diff, error) {
	return f.be.diff(ctx, key, a, b, resolveOpts(opts))
}

// ListKeys implements Store.
func (f *frontend) ListKeys(ctx context.Context, opts ...Option) ([]string, error) {
	return f.be.listKeys(ctx, resolveOpts(opts))
}

// ListBranches implements Store.
func (f *frontend) ListBranches(ctx context.Context, key string, opts ...Option) (BranchList, error) {
	return f.be.listBranches(ctx, key, resolveOpts(opts))
}

// RenameBranch implements Store.
func (f *frontend) RenameBranch(ctx context.Context, key, branchName, newName string, opts ...Option) error {
	return f.be.renameBranch(ctx, key, branchName, newName, resolveOpts(opts))
}

// RemoveBranch implements Store. With automatic collection configured,
// every n-th successful removal runs a collection before returning.
func (f *frontend) RemoveBranch(ctx context.Context, key, branchName string, opts ...Option) error {
	return f.be.removeBranch(ctx, key, branchName, resolveOpts(opts))
}

// Pin implements Store.
func (f *frontend) Pin(ctx context.Context, key string, uid UID, opts ...Option) error {
	return f.be.pin(ctx, key, uid, true, resolveOpts(opts))
}

// Unpin implements Store.
func (f *frontend) Unpin(ctx context.Context, key string, uid UID, opts ...Option) error {
	return f.be.pin(ctx, key, uid, false, resolveOpts(opts))
}

// GC implements Store.
func (f *frontend) GC(ctx context.Context, opts ...Option) (GCStats, error) {
	return f.be.gc(ctx, resolveOpts(opts))
}

// Value implements Store.
func (f *frontend) Value(ctx context.Context, key string, o *FObject, opts ...Option) (Value, error) {
	return f.be.value(ctx, key, o, resolveOpts(opts))
}

// storeBackend adapts a Store of any other type — a wrapper, a test
// double — to backend by re-packing the resolved options as the list
// its methods take.
type storeBackend struct{ st Store }

func (b storeBackend) get(ctx context.Context, key string, o callOpts) (*FObject, error) {
	return b.st.Get(ctx, key, o.options()...)
}

func (b storeBackend) put(ctx context.Context, key string, v Value, _ *branch.Batch, o callOpts) (UID, error) {
	return b.st.Put(ctx, key, v, o.options()...)
}

func (b storeBackend) apply(ctx context.Context, bt *Batch, o callOpts) ([]UID, error) {
	return b.st.Apply(ctx, bt, o.options()...)
}

func (b storeBackend) fork(ctx context.Context, key, nb string, o callOpts) error {
	return b.st.Fork(ctx, key, nb, o.options()...)
}

func (b storeBackend) merge(ctx context.Context, key, tgt string, o callOpts) (UID, []Conflict, error) {
	return b.st.Merge(ctx, key, tgt, o.options()...)
}

func (b storeBackend) track(ctx context.Context, key string, from, to int, o callOpts) ([]*FObject, error) {
	return b.st.Track(ctx, key, from, to, o.options()...)
}

func (b storeBackend) diff(ctx context.Context, key string, x, y UID, o callOpts) (*Diff, error) {
	return b.st.Diff(ctx, key, x, y, o.options()...)
}

func (b storeBackend) listKeys(ctx context.Context, o callOpts) ([]string, error) {
	return b.st.ListKeys(ctx, o.options()...)
}

func (b storeBackend) listBranches(ctx context.Context, key string, o callOpts) (BranchList, error) {
	return b.st.ListBranches(ctx, key, o.options()...)
}

func (b storeBackend) renameBranch(ctx context.Context, key, br, nb string, o callOpts) error {
	return b.st.RenameBranch(ctx, key, br, nb, o.options()...)
}

func (b storeBackend) removeBranch(ctx context.Context, key, br string, o callOpts) error {
	return b.st.RemoveBranch(ctx, key, br, o.options()...)
}

func (b storeBackend) gc(ctx context.Context, o callOpts) (GCStats, error) {
	return b.st.GC(ctx, o.options()...)
}

func (b storeBackend) value(ctx context.Context, key string, obj *FObject, o callOpts) (Value, error) {
	return b.st.Value(ctx, key, obj, o.options()...)
}

func (b storeBackend) pin(ctx context.Context, key string, uid UID, on bool, o callOpts) error {
	if on {
		return b.st.Pin(ctx, key, uid, o.options()...)
	}
	return b.st.Unpin(ctx, key, uid, o.options()...)
}

// --- embedded implementation ----------------------------------------
//
// *DB serves get, put, fork, merge, track, diff, listBranches,
// renameBranch, pin and value straight from its embedded contract
// (policy.go); the ops below add what only the embedded engine does.

func (db *DB) apply(ctx context.Context, b *Batch, o callOpts) ([]UID, error) {
	puts, err := db.batch(ctx, b, o)
	if err != nil {
		return nil, err
	}
	return db.eng.PutBatch(ctx, puts)
}

func (db *DB) listKeys(ctx context.Context, o callOpts) ([]string, error) {
	if err := db.allowAll(ctx, o.User, PermRead); err != nil {
		return nil, err
	}
	return db.eng.ListKeys(), nil
}

// removeBranch runs a collection after every n-th successful removal
// under WithAutoGC.
func (db *DB) removeBranch(ctx context.Context, key, branchName string, o callOpts) error {
	if err := db.contract.removeBranch(ctx, key, branchName, o); err != nil {
		return err
	}
	return db.autoGC.removed(ctx, db.runGC)
}

// gc is one mark-and-sweep collection over the embedded engine. The
// compaction threshold is the open-time WithGCThreshold (store default
// when unset).
func (db *DB) gc(ctx context.Context, o callOpts) (GCStats, error) {
	if err := db.allowAll(ctx, o.User, PermAdmin); err != nil {
		return GCStats{}, err
	}
	return db.runGC(ctx)
}

// runGC is the single chokepoint every collection (explicit or auto)
// runs through, so the GC pause histogram sees them all.
func (db *DB) runGC(ctx context.Context) (GCStats, error) {
	start := time.Now()
	stats, err := db.eng.GC(ctx, db.gcThreshold)
	db.gcPause.ObserveSince(start)
	return stats, err
}

var _ Store = (*DB)(nil)
