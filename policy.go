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
// controller in front of one request executor): contract is one
// engine and its access controller, and each of its methods checks
// the context, validates the option combination, obtains the ACL
// verdict and only then calls the engine. *DB embeds a contract over
// its engine and serves most ops straight from it; the ClusterClient
// runs one over the owning servlet's engine on that servlet's
// execution thread; the Server reaches it through the backend it
// serves (client.go) and uses allow for its chunk-level side doors.
// Nothing else in the tree calls ACL.Check or decides which options an
// op accepts (batch entries excepted: see Batch.put).
//
// The rules, in one place:
//
//   - A cancelled context fails the call before anything else runs.
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

// contract is the Store contract over one engine and the access
// controller in front of it (nil: open mode).
type contract struct {
	eng *core.Engine
	acl *ACL
}

// closed reports whether the ACL can deny anything at all, so the
// checks that must first load a version to learn its key skip the load
// in open mode.
func (c contract) closed() bool { return c.acl != nil && !c.acl.IsOpen() }

// allowVersion requires read permission on the key uid's version
// belongs to. The nil uid (a first write's base) names no version.
func (c contract) allowVersion(user string, uid UID) error {
	if !c.closed() || uid.IsNil() {
		return nil
	}
	obj, err := c.eng.GetUID(uid)
	if err != nil {
		return err
	}
	return allow(c.acl, user, string(obj.Key), "", PermRead)
}

// allowAll checks the context and need on the global wildcard
// ("", ""): listing the key space needs read there, and collection,
// which deletes data store-wide, needs admin like the other
// destructive ops.
func (c contract) allowAll(ctx context.Context, user string, need Permission) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return allow(c.acl, user, "", "", need)
}

// get: read on (key, branch); with WithBase, read on the version's own
// key.
func (c contract) get(ctx context.Context, key string, o callOpts) (*FObject, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if uid, ok := o.base(); ok {
		if o.BranchSet {
			return nil, ErrBadOptions
		}
		obj, err := c.eng.GetUID(uid)
		if err != nil {
			return nil, err
		}
		if err := allow(c.acl, o.User, string(obj.Key), "", PermRead); err != nil {
			return nil, err
		}
		return obj, nil
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(c.acl, o.User, key, br, PermRead); err != nil {
		return nil, err
	}
	return c.eng.Get([]byte(key), br)
}

// put: write on (key, branch); with WithBase, write on (key, "") and
// read on the base's key — deriving from a version pulls its content
// into the new one. A branch write's head record joins scope (nil: it
// is recorded alone); a fork-on-conflict write is always recorded
// alone.
func (c contract) put(ctx context.Context, key string, v Value, scope *branch.Batch, o callOpts) (UID, error) {
	if err := ctx.Err(); err != nil {
		return UID{}, err
	}
	if base, ok := o.base(); ok {
		if o.BranchSet || o.Guard != nil {
			return UID{}, ErrBadOptions
		}
		if err := allow(c.acl, o.User, key, "", PermWrite); err != nil {
			return UID{}, err
		}
		if err := c.allowVersion(o.User, base); err != nil {
			return UID{}, err
		}
		return c.eng.PutBase([]byte(key), base, v, o.Meta)
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(c.acl, o.User, key, br, PermWrite); err != nil {
		return UID{}, err
	}
	return c.eng.PutIn(scope, []byte(key), br, v, o.Meta, o.Guard)
}

// batch: write on every entry's (key, branch), all checked before any
// write lands. It returns the entries for the caller to commit — one
// engine batch embedded, one group per owning servlet clustered — and
// reads only the ACL, so the ClusterClient runs it with no engine.
func (c contract) batch(ctx context.Context, b *Batch, o callOpts) ([]core.BatchPut, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.err != nil {
		return nil, b.err
	}
	for _, p := range b.puts {
		if err := allow(c.acl, o.User, string(p.Key), p.Branch, PermWrite); err != nil {
			return nil, err
		}
	}
	return b.puts, nil
}

// fork: write on (key, newBranch); with WithBase, also read on the
// version's key — tagging a version makes it readable under this key's
// branches.
func (c contract) fork(ctx context.Context, key, newBranch string, o callOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	uid, pinned := o.base()
	if pinned && o.BranchSet {
		return ErrBadOptions
	}
	if err := allow(c.acl, o.User, key, newBranch, PermWrite); err != nil {
		return err
	}
	if !pinned {
		return c.eng.Fork([]byte(key), o.branchOr(DefaultBranch), newBranch)
	}
	if err := c.allowVersion(o.User, uid); err != nil {
		return err
	}
	return c.eng.ForkUID([]byte(key), uid, newBranch)
}

// merge: write on (key, tgtBranch) and read on the key of every
// WithBase version folded in. An empty tgtBranch merges untagged heads
// and needs two or more bases.
func (c contract) merge(ctx context.Context, key, tgtBranch string, o callOpts) (UID, []Conflict, error) {
	if err := ctx.Err(); err != nil {
		return UID{}, nil, err
	}
	// The reference is one branch or one version; untagged heads are
	// two or more versions and no branch.
	bad := len(o.Bases) > 1 || len(o.Bases) == 1 && o.BranchSet
	if tgtBranch == "" {
		bad = len(o.Bases) < 2 || o.BranchSet
	}
	if bad {
		return UID{}, nil, ErrBadOptions
	}
	if err := allow(c.acl, o.User, key, tgtBranch, PermWrite); err != nil {
		return UID{}, nil, err
	}
	for _, uid := range o.Bases {
		if err := c.allowVersion(o.User, uid); err != nil {
			return UID{}, nil, err
		}
	}
	return c.eng.Merge(ctx, []byte(key), tgtBranch, o.branchOr(DefaultBranch), o.Bases, o.resolver, o.Meta)
}

// track: read on (key, branch); with WithBase, read on the version's
// own key (derivation chains never cross keys).
func (c contract) track(ctx context.Context, key string, from, to int, o callOpts) ([]*FObject, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if uid, ok := o.base(); ok {
		if o.BranchSet {
			return nil, ErrBadOptions
		}
		if err := c.allowVersion(o.User, uid); err != nil {
			return nil, err
		}
		return c.eng.TrackUID(ctx, uid, from, to)
	}
	br := o.branchOr(DefaultBranch)
	if err := allow(c.acl, o.User, key, br, PermRead); err != nil {
		return nil, err
	}
	return c.eng.Track(ctx, []byte(key), br, from, to)
}

// diff: read on the keys the two versions belong to; key only routes
// the call.
func (c contract) diff(ctx context.Context, _ string, a, b UID, o callOpts) (*Diff, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, uid := range [...]UID{a, b} {
		if err := c.allowVersion(o.User, uid); err != nil {
			return nil, err
		}
	}
	return c.eng.Diff(ctx, a, b)
}

// listBranches: read on (key, "").
func (c contract) listBranches(ctx context.Context, key string, o callOpts) (BranchList, error) {
	if err := ctx.Err(); err != nil {
		return BranchList{}, err
	}
	if err := allow(c.acl, o.User, key, "", PermRead); err != nil {
		return BranchList{}, err
	}
	return BranchList{
		Tagged:   c.eng.ListTaggedBranches([]byte(key)),
		Untagged: c.eng.ListUntaggedBranches([]byte(key)),
	}, nil
}

// renameBranch: admin on (key, branch).
func (c contract) renameBranch(ctx context.Context, key, branchName, newName string, o callOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := allow(c.acl, o.User, key, branchName, PermAdmin); err != nil {
		return err
	}
	return c.eng.Rename([]byte(key), branchName, newName)
}

// removeBranch: admin on (key, branch). The backends add their
// automatic collection around it.
func (c contract) removeBranch(ctx context.Context, key, branchName string, o callOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := allow(c.acl, o.User, key, branchName, PermAdmin); err != nil {
		return err
	}
	return c.eng.RemoveBranch([]byte(key), branchName)
}

// pin places (on) or removes a GC root: write on (key, ""), and uid
// must not name another key's version — write on one key is not a
// licence to root, or un-root, the rest of the store. A uid that does
// not resolve (pin-ahead of the write) names no key yet and passes.
func (c contract) pin(ctx context.Context, key string, uid UID, on bool, o callOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := allow(c.acl, o.User, key, "", PermWrite); err != nil {
		return err
	}
	if c.closed() {
		if obj, err := c.eng.GetUID(uid); err == nil && string(obj.Key) != key {
			return fmt.Errorf("%w: version %s belongs to another key than %q", ErrAccessDenied, uid.Short(), key)
		}
	}
	if on {
		return c.eng.PinUID(uid)
	}
	return c.eng.UnpinUID(uid)
}

// value: read on the key the fetched object names; key only routes the
// call.
func (c contract) value(ctx context.Context, _ string, obj *FObject, o callOpts) (Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := allow(c.acl, o.User, string(obj.Key), "", PermRead); err != nil {
		return nil, err
	}
	return c.eng.Value(obj)
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
