package forkbase

import (
	"context"
	"time"

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

// --- embedded implementation ----------------------------------------
//
// Every method is the context check, the option fold and the op's
// policy function (policy.go) on the embedded engine.

// Get implements Store.
func (db *DB) Get(ctx context.Context, key string, opts ...Option) (*FObject, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	return getOp(db.eng, db.acl, key, &o)
}

// Put implements Store.
func (db *DB) Put(ctx context.Context, key string, v Value, opts ...Option) (UID, error) {
	if err := ctx.Err(); err != nil {
		return UID{}, err
	}
	o := resolveOpts(opts)
	return putOp(db.eng, db.acl, nil, key, v, &o)
}

// Apply implements Store.
func (db *DB) Apply(ctx context.Context, b *Batch, opts ...Option) ([]UID, error) {
	o := resolveOpts(opts)
	puts, err := batchOp(db.acl, b, &o)
	if err != nil {
		return nil, err
	}
	return db.eng.PutBatch(ctx, puts)
}

// Fork implements Store.
func (db *DB) Fork(ctx context.Context, key, newBranch string, opts ...Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := resolveOpts(opts)
	return forkOp(db.eng, db.acl, key, newBranch, &o)
}

// Merge implements Store.
func (db *DB) Merge(ctx context.Context, key, tgtBranch string, opts ...Option) (UID, []Conflict, error) {
	if err := ctx.Err(); err != nil {
		return UID{}, nil, err
	}
	o := resolveOpts(opts)
	return mergeOp(ctx, db.eng, db.acl, key, tgtBranch, &o)
}

// Track implements Store.
func (db *DB) Track(ctx context.Context, key string, from, to int, opts ...Option) ([]*FObject, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	return trackOp(ctx, db.eng, db.acl, key, from, to, &o)
}

// Diff implements Store.
func (db *DB) Diff(ctx context.Context, key string, a, b UID, opts ...Option) (*Diff, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	return diffOp(ctx, db.eng, db.acl, a, b, &o)
}

// ListKeys implements Store.
func (db *DB) ListKeys(ctx context.Context, opts ...Option) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o := resolveOpts(opts)
	if err := allowListKeys(db.acl, &o); err != nil {
		return nil, err
	}
	return db.eng.ListKeys(), nil
}

// ListBranches implements Store.
func (db *DB) ListBranches(ctx context.Context, key string, opts ...Option) (BranchList, error) {
	if err := ctx.Err(); err != nil {
		return BranchList{}, err
	}
	o := resolveOpts(opts)
	return listBranchesOp(db.eng, db.acl, key, &o)
}

// RenameBranch implements Store.
func (db *DB) RenameBranch(ctx context.Context, key, branchName, newName string, opts ...Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := resolveOpts(opts)
	return renameBranchOp(db.eng, db.acl, key, branchName, newName, &o)
}

// RemoveBranch implements Store. With WithAutoGC configured, every
// n-th successful removal triggers a full collection before returning.
func (db *DB) RemoveBranch(ctx context.Context, key, branchName string, opts ...Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := resolveOpts(opts)
	if err := removeBranchOp(db.eng, db.acl, key, branchName, &o); err != nil {
		return err
	}
	return db.autoGC.removed(ctx, db.runGC)
}

// Pin implements Store.
func (db *DB) Pin(ctx context.Context, key string, uid UID, opts ...Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := resolveOpts(opts)
	return pinOp(db.eng, db.acl, key, uid, true, &o)
}

// Unpin implements Store.
func (db *DB) Unpin(ctx context.Context, key string, uid UID, opts ...Option) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	o := resolveOpts(opts)
	return pinOp(db.eng, db.acl, key, uid, false, &o)
}

// GC implements Store: one mark-and-sweep collection over the embedded
// engine. The compaction threshold is the open-time WithGCThreshold
// (store default when unset).
func (db *DB) GC(ctx context.Context, opts ...Option) (GCStats, error) {
	if err := ctx.Err(); err != nil {
		return GCStats{}, err
	}
	o := resolveOpts(opts)
	if err := allowGC(db.acl, &o); err != nil {
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

// Value implements Store.
func (db *DB) Value(ctx context.Context, key string, o *FObject, opts ...Option) (Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	co := resolveOpts(opts)
	return valueOp(db.eng, db.acl, o, &co)
}

var _ Store = (*DB)(nil)
