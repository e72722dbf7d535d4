package forkbase

import "forkbase/internal/wire"

// Option customizes a single Store call. Options compose the M1–M17
// method zoo of paper Table 1 into a handful of orthogonal calls: the
// operation names the verb (Get, Put, Fork, Merge, Track, …) and the
// options select the variant — which branch, which base version, which
// guard, which resolver, and on whose behalf the call runs. An Option is
// a plain value, built by the With… functions and folded by the call.
type Option struct {
	kind     optKind
	str      string // the branch, meta or user
	uid      UID    // the base or guard
	resolver Resolver
	set      *callOpts // a whole resolved set (callOpts.options)
}

type optKind uint8

const (
	optBranch optKind = iota + 1
	optBase
	optGuard
	optMeta
	optResolver
	optUser
	optSet
)

// callOpts is the resolved option set for one call: its wire form,
// and beside it the merge resolver, a function the wire carries only
// as a built-in's code (wireOpts, optsFromWire).
type callOpts struct {
	wire.CallOptions
	resolver Resolver
}

// resolveOpts folds opts over the defaults. The fold is a switch over
// values, so the set stays on the caller's stack: a call allocates only
// what an option carries into it (a base list, a guard, a meta copy).
func resolveOpts(opts []Option) callOpts {
	var o callOpts
	for i := range opts {
		op := &opts[i]
		switch op.kind {
		case optBranch:
			o.Branch, o.BranchSet = op.str, true
		case optBase:
			o.Bases = append(o.Bases, op.uid)
		case optGuard:
			u := op.uid
			o.Guard = &u
		case optMeta:
			o.Meta = []byte(op.str)
		case optResolver:
			o.resolver = op.resolver
		case optUser:
			o.User = op.str
		case optSet:
			o = *op.set
		}
	}
	return o
}

// options re-packs a resolved set as the option list a Store call
// takes — how storeBackend hands a decoded request's options to a
// store the server can only reach through its methods: one option that
// carries the whole set. The empty set is no options at all, so the
// common request allocates nothing here.
func (o *callOpts) options() []Option {
	if o.User == "" && !o.BranchSet && len(o.Bases) == 0 && o.Guard == nil && o.Meta == nil && o.resolver == nil {
		return nil
	}
	set := *o
	return []Option{{kind: optSet, set: &set}}
}

// branchOr returns the selected branch, or def when none was chosen.
func (o *callOpts) branchOr(def string) string {
	if o.BranchSet {
		return o.Branch
	}
	return def
}

// base returns the single selected base version, if any.
func (o *callOpts) base() (UID, bool) {
	if len(o.Bases) == 0 {
		return UID{}, false
	}
	return o.Bases[0], true
}

// WithBranch selects the branch a call operates on. For Get/Put/Track
// it names the branch to read or write (default DefaultBranch); for
// Fork and Merge it names the reference branch the new branch or merge
// derives from.
func WithBranch(name string) Option {
	return Option{kind: optBranch, str: name}
}

// WithBase pins a call to an explicit version instead of a branch head:
// Get reads that version (M2), Put derives from it — the
// fork-on-conflict path (M4) — Fork tags it (M12), Merge merges it
// (M6), and Track walks history behind it (M16). Repeating WithBase
// accumulates versions; Merge with two or more bases and an empty
// target branch merges untagged heads (M7).
func WithBase(uid UID) Option {
	return Option{kind: optBase, uid: uid}
}

// WithGuard makes a Put conditional: it succeeds only while the branch
// head still equals uid (§4.5.1), failing with ErrGuardFailed when the
// head has moved and with ErrBranchNotFound when the branch does not
// exist at all — so a caller can tell "re-read and retry" from "the
// branch is gone". Protects read-modify-write cycles against lost
// updates.
func WithGuard(uid UID) Option {
	return Option{kind: optGuard, uid: uid}
}

// WithMeta attaches application metadata (e.g. a commit message) to the
// version a write creates; it is stored in the version's context field.
func WithMeta(msg string) Option {
	return Option{kind: optMeta, str: msg}
}

// WithResolver sets the conflict resolver a Merge uses (§4.5.2). See
// ChooseA, ChooseB, AppendResolve, Aggregate for built-ins. Without a
// resolver, differing values surface as ErrConflict.
func WithResolver(r Resolver) Option {
	return Option{kind: optResolver, resolver: r}
}

// WithUser runs the call on behalf of a user; the access controller
// checks that user's permissions before execution and denies the call
// with ErrAccessDenied otherwise. Without it the call is anonymous,
// which open-mode stores (the embedded default) accept.
func WithUser(u string) Option {
	return Option{kind: optUser, str: u}
}
