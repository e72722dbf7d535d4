package forkbase

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"forkbase/internal/branch"
	"forkbase/internal/core"
	"forkbase/internal/store"
)

// This file is the Store contract, written once (§4.1: one access
// controller in front of one request executor). Every op is a single
// function that validates the option combination, obtains the ACL
// verdict and only then calls the engine. The embedded DB calls these
// functions directly; the ClusterClient runs the same functions on the
// owning servlet's execution thread; the Server reaches them through
// the backend it serves (client.go) and uses allow for its chunk-level
// side doors. Nothing else in the tree calls ACL.Check or decides which
// options an op accepts (batch entries excepted: see Batch.put).
//
// The rules, in one place:
//
//   - Options are validated before the ACL is consulted, so a malformed
//     call fails with ErrBadOptions whoever makes it.
//   - A call on a branch needs its permission on (key, branch); a call
//     that names no branch needs it on (key, "").
//   - A uid is never a capability. Wherever WithBase (or Diff, or a
//     fetched FObject) names a version, read permission is required on
//     the key that version belongs to — the caller-supplied key only
//     routes the call and, for writes, names the target.

// allow runs the access controller for user on (key, branchName) at
// level need. A nil ACL is open mode. This is the tree's one call site
// of ACL.Check.
func allow(acl *ACL, user, key, branchName string, need Permission) error {
	if acl == nil {
		return nil
	}
	return acl.Check(user, key, branchName, need)
}

// closed reports whether acl can deny anything at all, so the checks
// that must first load a version to learn its key skip the load in
// open mode.
func closed(acl *ACL) bool { return acl != nil && !acl.IsOpen() }

// allowVersion requires read permission on the key uid's version
// belongs to. The nil uid (a first write's base) names no version.
func allowVersion(eng *core.Engine, acl *ACL, user string, uid UID) error {
	if !closed(acl) || uid.IsNil() {
		return nil
	}
	obj, err := eng.GetUID(uid)
	if err != nil {
		return err
	}
	return allow(acl, user, string(obj.Key), "", PermRead)
}

// getOp: read on (key, branch); with WithBase, read on the version's
// own key.
func getOp(eng *core.Engine, acl *ACL, key string, o *callOpts) (*FObject, error) {
	if uid, ok := o.base(); ok {
		if o.branchSet {
			return nil, ErrBadOptions
		}
		obj, err := eng.GetUID(uid)
		if err != nil {
			return nil, err
		}
		if err := allow(acl, o.user, string(obj.Key), "", PermRead); err != nil {
			return nil, err
		}
		return obj, nil
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(acl, o.user, key, br, PermRead); err != nil {
		return nil, err
	}
	return eng.Get([]byte(key), br)
}

// putOp: write on (key, branch); with WithBase, write on (key, "") and
// read on the base's key — deriving from a version pulls its content
// into the new one. A branch write's head record joins scope (nil: it
// is recorded alone); a fork-on-conflict write is always recorded
// alone.
func putOp(eng *core.Engine, acl *ACL, scope *branch.Batch, key string, v Value, o *callOpts) (UID, error) {
	if base, ok := o.base(); ok {
		if o.branchSet || o.guard != nil {
			return UID{}, ErrBadOptions
		}
		if err := allow(acl, o.user, key, "", PermWrite); err != nil {
			return UID{}, err
		}
		if err := allowVersion(eng, acl, o.user, base); err != nil {
			return UID{}, err
		}
		return eng.PutBase([]byte(key), base, v, o.meta)
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(acl, o.user, key, br, PermWrite); err != nil {
		return UID{}, err
	}
	return eng.PutIn(scope, []byte(key), br, v, o.meta, o.guard)
}

// batchOp: write on every entry's (key, branch), all checked before
// any write lands. It returns the entries for the caller to commit —
// one engine batch embedded, one group per owning servlet clustered.
func batchOp(acl *ACL, b *Batch, o *callOpts) ([]core.BatchPut, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, p := range b.puts {
		if err := allow(acl, o.user, string(p.Key), p.Branch, PermWrite); err != nil {
			return nil, err
		}
	}
	return b.puts, nil
}

// forkOp: write on (key, newBranch); with WithBase, also read on the
// version's key — tagging a version makes it readable under this key's
// branches.
func forkOp(eng *core.Engine, acl *ACL, key, newBranch string, o *callOpts) error {
	uid, pinned := o.base()
	if pinned && o.branchSet {
		return ErrBadOptions
	}
	if err := allow(acl, o.user, key, newBranch, PermWrite); err != nil {
		return err
	}
	if !pinned {
		return eng.Fork([]byte(key), o.branchOr(DefaultBranch), newBranch)
	}
	if err := allowVersion(eng, acl, o.user, uid); err != nil {
		return err
	}
	return eng.ForkUID([]byte(key), uid, newBranch)
}

// mergeOp: write on (key, tgtBranch) and read on the key of every
// WithBase version folded in. An empty tgtBranch merges untagged heads
// and needs two or more bases.
func mergeOp(ctx context.Context, eng *core.Engine, acl *ACL, key, tgtBranch string, o *callOpts) (UID, []Conflict, error) {
	// The reference is one branch or one version; untagged heads are
	// two or more versions and no branch.
	bad := len(o.bases) > 1 || len(o.bases) == 1 && o.branchSet
	if tgtBranch == "" {
		bad = len(o.bases) < 2 || o.branchSet
	}
	if bad {
		return UID{}, nil, ErrBadOptions
	}
	if err := allow(acl, o.user, key, tgtBranch, PermWrite); err != nil {
		return UID{}, nil, err
	}
	for _, uid := range o.bases {
		if err := allowVersion(eng, acl, o.user, uid); err != nil {
			return UID{}, nil, err
		}
	}
	if tgtBranch == "" {
		return eng.MergeUntagged(ctx, []byte(key), o.resolver, o.meta, o.bases...)
	}
	if ref, ok := o.base(); ok {
		return eng.MergeUID(ctx, []byte(key), tgtBranch, ref, o.resolver, o.meta)
	}
	return eng.MergeBranches(ctx, []byte(key), tgtBranch, o.branchOr(DefaultBranch), o.resolver, o.meta)
}

// trackOp: read on (key, branch); with WithBase, read on the version's
// own key (derivation chains never cross keys).
func trackOp(ctx context.Context, eng *core.Engine, acl *ACL, key string, from, to int, o *callOpts) ([]*FObject, error) {
	if uid, ok := o.base(); ok {
		if o.branchSet {
			return nil, ErrBadOptions
		}
		if err := allowVersion(eng, acl, o.user, uid); err != nil {
			return nil, err
		}
		return eng.TrackUID(ctx, uid, from, to)
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(acl, o.user, key, br, PermRead); err != nil {
		return nil, err
	}
	return eng.Track(ctx, []byte(key), br, from, to)
}

// diffOp: read on the keys the two versions belong to.
func diffOp(ctx context.Context, eng *core.Engine, acl *ACL, a, b UID, o *callOpts) (*Diff, error) {
	for _, uid := range [...]UID{a, b} {
		if err := allowVersion(eng, acl, o.user, uid); err != nil {
			return nil, err
		}
	}
	return eng.Diff(ctx, a, b)
}

// allowListKeys: listing the key space needs read on the global
// wildcard ("", "").
func allowListKeys(acl *ACL, o *callOpts) error {
	return allow(acl, o.user, "", "", PermRead)
}

// listBranchesOp: read on (key, "").
func listBranchesOp(eng *core.Engine, acl *ACL, key string, o *callOpts) (BranchList, error) {
	if err := allow(acl, o.user, key, "", PermRead); err != nil {
		return BranchList{}, err
	}
	return BranchList{
		Tagged:   eng.ListTaggedBranches([]byte(key)),
		Untagged: eng.ListUntaggedBranches([]byte(key)),
	}, nil
}

// renameBranchOp: admin on (key, branch).
func renameBranchOp(eng *core.Engine, acl *ACL, key, branchName, newName string, o *callOpts) error {
	if err := allow(acl, o.user, key, branchName, PermAdmin); err != nil {
		return err
	}
	return eng.Rename([]byte(key), branchName, newName)
}

// removeBranchOp: admin on (key, branch).
func removeBranchOp(eng *core.Engine, acl *ACL, key, branchName string, o *callOpts) error {
	if err := allow(acl, o.user, key, branchName, PermAdmin); err != nil {
		return err
	}
	return eng.RemoveBranch([]byte(key), branchName)
}

// pinOp places (pin) or removes a GC root: write on (key, ""), and uid
// must not name another key's version — write on one key is not a
// licence to root, or un-root, the rest of the store. A uid that does
// not resolve (pin-ahead of the write) names no key yet and passes.
func pinOp(eng *core.Engine, acl *ACL, key string, uid UID, pin bool, o *callOpts) error {
	if err := allow(acl, o.user, key, "", PermWrite); err != nil {
		return err
	}
	if closed(acl) {
		if obj, err := eng.GetUID(uid); err == nil && string(obj.Key) != key {
			return fmt.Errorf("%w: version %s belongs to another key than %q", ErrAccessDenied, uid.Short(), key)
		}
	}
	if pin {
		return eng.PinUID(uid)
	}
	return eng.UnpinUID(uid)
}

// allowGC: collection deletes data store-wide, so like the other
// destructive admin ops it needs admin — on the global wildcard.
func allowGC(acl *ACL, o *callOpts) error {
	return allow(acl, o.user, "", "", PermAdmin)
}

// valueOp: read on the key the fetched object names.
func valueOp(eng *core.Engine, acl *ACL, obj *FObject, o *callOpts) (Value, error) {
	if err := allow(acl, o.user, string(obj.Key), "", PermRead); err != nil {
		return nil, err
	}
	return eng.Value(obj)
}

// autoGC is the collect-after-every-n-th-removal trigger (WithAutoGC,
// ClusterConfig.AutoGCEvery); RemoveBranch is the op that turns
// reachable versions into garbage.
type autoGC struct {
	every    int
	removals atomic.Int64
}

// removed counts one successful branch removal and runs collect when
// it is the every-th. A collection already sweeping (another removal's
// auto-GC, or an explicit GC) takes this removal's garbage with it or
// leaves it for the next round — not an error. The removal succeeded
// either way; a real GC failure is reported wrapped so the caller can
// tell the two apart.
func (a *autoGC) removed(ctx context.Context, collect func(context.Context) (GCStats, error)) error {
	if a.every <= 0 || a.removals.Add(1)%int64(a.every) != 0 {
		return nil
	}
	if _, err := collect(ctx); err != nil && !errors.Is(err, store.ErrSweepInProgress) {
		return fmt.Errorf("forkbase: auto-gc after branch removal: %w", err)
	}
	return nil
}
