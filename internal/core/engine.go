// Package core wires the substrates together into the ForkBase engine:
// chunk storage underneath, branch tables per key, the object manager
// (types), and merge semantics on top. It implements the operations of
// paper Table 1 (M1–M17) for a single servlet; the public forkbase
// package and the cluster layer both delegate here.
package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"forkbase/internal/branch"
	"forkbase/internal/merge"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// Errors reported by engine operations.
var (
	ErrKeyNotFound  = errors.New("core: key not found")
	ErrTypeMismatch = errors.New("core: value type does not match")
	// ErrBadOptions reports an option combination a client call cannot
	// satisfy. It lives here (rather than the public package) so the
	// wire protocol can round-trip it without an import cycle.
	ErrBadOptions = errors.New("forkbase: conflicting or missing call options")
)

// keyLockStripes is the size of the fixed update-lock table. A power
// of two so the stripe index is a mask over the key hash.
const keyLockStripes = 1024

// Engine is a single-servlet ForkBase instance. It is safe for
// concurrent use; updates to any one key are serialized (§4.5.1).
type Engine struct {
	s     store.Store
	cfg   postree.Config
	space *branch.Space

	// locks stripes the per-key update mutexes: a key maps to a stripe
	// by hash, so memory stays fixed no matter how many distinct keys
	// the engine ever sees (a per-key map grew without bound). Two keys
	// sharing a stripe merely serialize their updates, which is
	// harmless for correctness and rare at 1024 stripes.
	locks [keyLockStripes]sync.Mutex

	// pins are uids explicitly protected from garbage collection: GC
	// roots beyond the branch tables. A client holding a version only
	// by uid (e.g. after RemoveBranch) pins it to keep it collectable-
	// proof, the way git requires a ref before gc.
	pinMu sync.RWMutex
	pins  map[types.UID]struct{}

	// meta, when set (Recover), journals every pin mutation and opens
	// the batch scopes of PutBatch and Begin; single branch mutations
	// are journaled by the tables themselves, which carry the journal
	// as their sink.
	meta *branch.Journal

	// shields are transient, refcounted GC roots protecting chunks that
	// exist in the store but are not yet reachable from any version —
	// the window between a chunk-sync upload (or a Have answer that
	// told a client not to re-send) and the OpPutChunked commit that
	// references them. Unlike pins they are never journaled: a crash
	// drops them, exactly as it drops the half-finished upload they
	// were protecting. The store's own GC protection window cannot
	// cover this case — it shields only chunks Put while a collection
	// is running, not chunks uploaded before BeginGC and referenced
	// after Sweep.
	shieldMu sync.Mutex
	shields  map[types.UID]int

	// rootsHook, when set (ordering tests only), runs inside Roots
	// between reading the shields and pins and reading the heads.
	rootsHook func()

	// gc keeps what the next collection needs from the last one to
	// walk and sweep only what changed since; see store.Collector.
	gc store.Collector
}

// SetRootsHookForTest installs f to run inside Roots, between reading
// the shields and pins and reading the heads: a collection parked there
// has read part of its roots and swept nothing. Ordering tests only;
// call it before the engine is shared.
func (e *Engine) SetRootsHookForTest(f func()) { e.rootsHook = f }

// ForgetGCForTest drops the collector's state, so that the next
// collection marks and sweeps everything: the full collection a
// young-only one must match.
func (e *Engine) ForgetGCForTest() { e.gc.Forget() }

// NewEngine returns an engine over the given chunk store.
func NewEngine(s store.Store, cfg postree.Config) *Engine {
	return &Engine{
		s:       s,
		cfg:     cfg,
		space:   branch.NewSpace(),
		pins:    make(map[types.UID]struct{}),
		shields: make(map[types.UID]int),
	}
}

// Store exposes the underlying chunk store (for stats and the chunk
// partitioning layer).
func (e *Engine) Store() store.Store { return e.s }

// Recover attaches a metadata journal: the engine's branch tables and
// pin set are replaced by the state the journal recovered from disk,
// and every subsequent head or pin mutation is recorded for the next
// open to replay. Call it immediately after NewEngine, before the
// engine serves requests — it swaps the branch space wholesale.
func (e *Engine) Recover(j *branch.Journal) {
	space, pins := j.Restore()
	e.space = space
	e.pinMu.Lock()
	e.pins = make(map[types.UID]struct{}, len(pins))
	for _, uid := range pins {
		e.pins[uid] = struct{}{}
	}
	e.pinMu.Unlock()
	e.meta = j
}

// Config returns the POS-Tree configuration.
func (e *Engine) Config() postree.Config { return e.cfg }

// keyLock returns the update mutex striping this key.
func (e *Engine) keyLock(key []byte) *sync.Mutex {
	// Inline FNV-1a; hash/fnv would force a []byte->Hash allocation.
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return &e.locks[h&(keyLockStripes-1)]
}

// Get returns the head version of a tagged branch (M1).
func (e *Engine) Get(key []byte, branchName string) (*types.FObject, error) {
	t, ok := e.space.Lookup(key)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	uid, ok := t.Head(branchName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", branch.ErrBranchNotFound, branchName)
	}
	return types.LoadFObject(e.s, uid)
}

// GetUID returns a specific version by uid (M2), verifying its
// integrity against the requested identifier.
func (e *Engine) GetUID(uid types.UID) (*types.FObject, error) {
	return types.LoadFObject(e.s, uid)
}

// Value decodes an FObject's value against this engine's store.
func (e *Engine) Value(o *types.FObject) (types.Value, error) {
	return o.Value(e.s, e.cfg)
}

// Put writes a new version to a tagged branch (M3), deriving from the
// current head. The branch is created on first write. Returns the new
// uid.
func (e *Engine) Put(key []byte, branchName string, v types.Value, context []byte) (types.UID, error) {
	return e.PutIn(nil, key, branchName, v, context, nil)
}

// Begin opens a journal scope for PutIn; without a journal it is nil,
// and ending it costs nothing.
func (e *Engine) Begin() *branch.Batch { return e.meta.Begin() }

// PutIn is Put whose head record joins scope: the head moves now, and
// its record reaches the journal with scope's End, together with every
// other record of the scope. A nil scope records alone, before PutIn
// returns. A non-nil guard makes the put succeed only while the branch
// head still equals it, protecting against lost updates (§4.5.1). It
// is a one-write putGroup.
func (e *Engine) PutIn(scope *branch.Batch, key []byte, branchName string, v types.Value, context []byte, guard *types.UID) (types.UID, error) {
	var uid [1]types.UID
	err := e.putGroup(scope, key, []int{0}, []BatchPut{{Key: key, Branch: branchName, Value: v, Meta: context, Guard: guard}}, uid[:])
	return uid[0], err
}

// BatchPut is one write of a batched put group (the client Batch API).
type BatchPut struct {
	Key    []byte
	Branch string
	Value  types.Value
	Meta   []byte
	// Guard, when non-nil, makes the write conditional on the branch
	// head (as the writer would observe it inside the batch).
	Guard *types.UID
}

// PutBatch applies a group of tagged-branch writes, amortizing the
// per-put costs that dominate small writes: puts are grouped by key,
// each key's update lock is taken once per group, each branch head is
// loaded once and then chained in memory, and the branch table is
// updated once per branch at the end of the group.
//
// Within a key the group is atomic: head updates become visible only
// after every write in the group succeeds. Across keys the batch is
// not atomic — groups for earlier keys may have committed when a later
// group fails. Returns the new uids in put order. ctx is checked
// between key groups; a cancelled context aborts the remaining groups.
//
// The whole batch is one journal scope: the head records of its groups
// reach the WAL under a single write-ahead barrier and a single write
// before PutBatch returns, in the order the groups applied them.
func (e *Engine) PutBatch(ctx context.Context, puts []BatchPut) ([]types.UID, error) {
	scope := e.meta.Begin()
	uids, err := e.putBatch(ctx, scope, puts)
	// Heads that moved are recorded whichever group failed; a failed
	// flush is a durability report for the whole batch.
	if eerr := scope.End(); err == nil && eerr != nil {
		return nil, eerr
	}
	return uids, err
}

func (e *Engine) putBatch(ctx context.Context, scope *branch.Batch, puts []BatchPut) ([]types.UID, error) {
	uids := make([]types.UID, len(puts))
	// Group put indexes by key, preserving first-seen key order.
	var order []string
	groups := make(map[string][]int)
	for i, p := range puts {
		k := string(p.Key)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.putGroup(scope, []byte(k), groups[k], puts, uids); err != nil {
			return nil, err
		}
	}
	return uids, nil
}

// putGroup applies one key's batched writes under a single lock hold;
// the head records join scope. A guard is checked against the head as
// the group has moved it so far: a missing branch is ErrBranchNotFound,
// another head ErrGuardFailed. The key's branch table is created only
// once every write is saved, so a failed write leaves no empty key.
// When a head record cannot be journaled the head has still moved, and
// uids holds the new versions beside the error: a retry can observe the
// applied update instead of fighting its own write.
func (e *Engine) putGroup(scope *branch.Batch, key []byte, idxs []int, puts []BatchPut, uids []types.UID) error {
	l := e.keyLock(key)
	l.Lock()
	defer l.Unlock()
	t, _ := e.space.Lookup(key)
	// heads holds each written branch's pending head, in first-write
	// order; head is nil while a new branch has none.
	type pending struct {
		branch string
		head   *types.FObject
	}
	heads := make([]pending, 0, 1)
	for _, i := range idxs {
		p := puts[i]
		h := 0
		for h < len(heads) && heads[h].branch != p.Branch {
			h++
		}
		if h == len(heads) {
			var head *types.FObject
			if uid, ok := t.Head(p.Branch); ok {
				o, err := types.LoadFObject(e.s, uid)
				if err != nil {
					return err
				}
				head = o
			}
			heads = append(heads, pending{branch: p.Branch, head: head})
		}
		base := heads[h].head
		if p.Guard != nil {
			if base == nil {
				return fmt.Errorf("%w: %q", branch.ErrBranchNotFound, p.Branch)
			}
			if base.UID() != *p.Guard {
				return branch.ErrGuardFailed
			}
		}
		var bases []*types.FObject
		if base != nil {
			bases = []*types.FObject{base}
		}
		o, err := types.Save(e.s, e.cfg, key, p.Value, bases, p.Meta)
		if err != nil {
			return err
		}
		uids[i] = o.UID()
		heads[h].head = o
	}
	if t == nil {
		t = e.space.Table(key)
	}
	for _, h := range heads {
		if err := t.UpdateTaggedIn(scope, h.branch, h.head.UID()); err != nil {
			return err
		}
	}
	return nil
}

// PutBase writes a new version deriving from an explicit base version
// (M4) — the fork-on-conflict path. Concurrent PutBase calls against
// the same base create sibling untagged heads (Figure 3b).
func (e *Engine) PutBase(key []byte, baseUID types.UID, v types.Value, context []byte) (types.UID, error) {
	l := e.keyLock(key)
	l.Lock()
	defer l.Unlock()
	var bases []*types.FObject
	if !baseUID.IsNil() {
		base, err := types.LoadFObject(e.s, baseUID)
		if err != nil {
			return types.UID{}, err
		}
		bases = append(bases, base)
	}
	o, err := types.Save(e.s, e.cfg, key, v, bases, context)
	if err != nil {
		return types.UID{}, err
	}
	t := e.space.Table(key)
	var baseList []types.UID
	if !baseUID.IsNil() {
		baseList = []types.UID{baseUID}
	}
	if err := t.AddUntagged(o.UID(), baseList); err != nil {
		// The head is in the UB-table; the error is a durability report.
		return o.UID(), err
	}
	return o.UID(), nil
}

// Fork creates a new tagged branch at an existing branch head (M11).
func (e *Engine) Fork(key []byte, refBranch, newBranch string) error {
	t, ok := e.space.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	uid, ok := t.Head(refBranch)
	if !ok {
		return fmt.Errorf("%w: %q", branch.ErrBranchNotFound, refBranch)
	}
	return t.Fork(newBranch, uid)
}

// ForkUID creates a new tagged branch at an arbitrary version (M12) —
// the way a historical version becomes modifiable again (§3.3).
func (e *Engine) ForkUID(key []byte, uid types.UID, newBranch string) error {
	if _, err := types.LoadFObject(e.s, uid); err != nil {
		return err
	}
	return e.space.Table(key).Fork(newBranch, uid)
}

// Rename renames a tagged branch (M13).
func (e *Engine) Rename(key []byte, branchName, newName string) error {
	t, ok := e.space.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	return t.Rename(branchName, newName)
}

// RemoveBranch deletes a tagged branch name (M14).
func (e *Engine) RemoveBranch(key []byte, branchName string) error {
	t, ok := e.space.Lookup(key)
	if !ok {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	return t.Remove(branchName)
}

// ListKeys returns all keys (M8).
func (e *Engine) ListKeys() []string { return e.space.Keys() }

// ListTaggedBranches returns all tagged branches of a key (M9).
func (e *Engine) ListTaggedBranches(key []byte) []branch.TaggedBranch {
	t, ok := e.space.Lookup(key)
	if !ok {
		return nil
	}
	return t.Tagged()
}

// ListUntaggedBranches returns all untagged heads of a key (M10). A
// single head means no conflict.
func (e *Engine) ListUntaggedBranches(key []byte) []types.UID {
	t, ok := e.space.Lookup(key)
	if !ok {
		return nil
	}
	return t.Untagged()
}

// IsHead reports whether uid is currently a head of key, tagged or
// untagged — i.e. a GC root, so that everything it references is
// complete and stays in the store for as long as the answer holds.
func (e *Engine) IsHead(key []byte, uid types.UID) bool {
	t, ok := e.space.Lookup(key)
	return ok && t.IsHead(uid)
}

// Track returns historical versions of a branch head at derivation
// distances [from, to] (M15): Track(key, b, 0, 0) is the head itself,
// distances follow first bases. ctx is honoured per walked version:
// a cancelled caller (locally, or a remote client that hung up) stops
// paying for the rest of a deep history promptly.
func (e *Engine) Track(ctx context.Context, key []byte, branchName string, from, to int) ([]*types.FObject, error) {
	o, err := e.Get(key, branchName)
	if err != nil {
		return nil, err
	}
	return e.TrackUID(ctx, o.UID(), from, to)
}

// TrackUID returns historical versions at derivation distances
// [from, to] behind the given version (M16), checking ctx at every
// step of the walk.
func (e *Engine) TrackUID(ctx context.Context, uid types.UID, from, to int) ([]*types.FObject, error) {
	if from < 0 || to < from {
		return nil, fmt.Errorf("core: bad distance range [%d, %d]", from, to)
	}
	var out []*types.FObject
	cur, err := types.LoadFObject(e.s, uid)
	if err != nil {
		return nil, err
	}
	for d := 0; d <= to; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if d >= from {
			out = append(out, cur)
		}
		if len(cur.Bases) == 0 {
			break
		}
		cur, err = types.LoadFObject(e.s, cur.Bases[0])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// LCA returns the least common ancestor of two versions (M17).
func (e *Engine) LCA(ctx context.Context, uid1, uid2 types.UID) (*types.FObject, error) {
	return merge.LCA(ctx, e.s, uid1, uid2)
}

// Merge three-way merges versions of key, each fold step against the
// least common ancestor of its two inputs (the ancestor search honours
// ctx), and returns the result, which derives from both inputs.
//
// With tgtBranch set, the result replaces that branch's head (M5, M6);
// it merges in the version refs[0] when refs is not empty, else the
// head of refBranch, read under the key's update lock. With tgtBranch
// empty it folds two or more untagged heads refs, which the result
// replaces in the UB-table (M7).
//
// A conflict moves no head. A returned uid beside an error reports a
// merge whose head moved but whose journal record was lost.
func (e *Engine) Merge(ctx context.Context, key []byte, tgtBranch, refBranch string, refs []types.UID, res merge.Resolver, meta []byte) (types.UID, []merge.Conflict, error) {
	if tgtBranch == "" && len(refs) < 2 {
		return types.UID{}, nil, fmt.Errorf("core: an untagged merge needs at least 2 versions")
	}
	l := e.keyLock(key)
	l.Lock()
	defer l.Unlock()
	t, _ := e.space.Lookup(key)
	inputs := refs
	if tgtBranch != "" {
		var ref types.UID
		var ok bool
		if len(refs) > 0 {
			ref = refs[0]
		} else if t == nil {
			return types.UID{}, nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		} else if ref, ok = t.Head(refBranch); !ok {
			return types.UID{}, nil, fmt.Errorf("%w: %q", branch.ErrBranchNotFound, refBranch)
		}
		tgt, ok := t.Head(tgtBranch)
		if !ok {
			return types.UID{}, nil, fmt.Errorf("%w: %q", branch.ErrBranchNotFound, tgtBranch)
		}
		inputs = []types.UID{tgt, ref}
	}
	cur, err := types.LoadFObject(e.s, inputs[0])
	if err != nil {
		return types.UID{}, nil, err
	}
	for _, uid := range inputs[1:] {
		next, err := types.LoadFObject(e.s, uid)
		if err != nil {
			return types.UID{}, nil, err
		}
		base, err := merge.LCA(ctx, e.s, cur.UID(), uid)
		if err != nil {
			return types.UID{}, nil, err
		}
		v, conflicts, err := merge.ThreeWay(ctx, e.s, e.cfg, base, cur, next, res)
		if err != nil {
			return types.UID{}, conflicts, err
		}
		// Each fold step is saved, so the next one has a version to
		// merge against; only the last is published.
		if cur, err = types.Save(e.s, e.cfg, key, v, []*types.FObject{cur, next}, meta); err != nil {
			return types.UID{}, nil, err
		}
	}
	if tgtBranch != "" {
		err = t.UpdateTaggedIn(nil, tgtBranch, cur.UID())
	} else {
		err = e.space.Table(key).ReplaceUntagged(cur.UID(), inputs)
	}
	return cur.UID(), nil, err
}

// PinUID protects a version (and everything it reaches — its value
// chunks and full derivation history) from garbage collection, beyond
// what the branch tables already keep live. Pinning does not verify
// the uid exists; pinning ahead of a future write is allowed, and a
// still-unwritten pin is simply ignored by collections until the
// version lands. With a metadata journal attached, the pin is recorded
// durably; a returned error reports lost durability, not a lost pin.
func (e *Engine) PinUID(uid types.UID) error {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	e.pins[uid] = struct{}{}
	if e.meta == nil {
		return nil
	}
	return e.meta.Record(branch.Op{Kind: branch.OpPin, UID: uid})
}

// UnpinUID removes a pin. The version stays reachable only if a branch
// (or another pin) still reaches it.
func (e *Engine) UnpinUID(uid types.UID) error {
	e.pinMu.Lock()
	defer e.pinMu.Unlock()
	delete(e.pins, uid)
	if e.meta == nil {
		return nil
	}
	return e.meta.Record(branch.Op{Kind: branch.OpUnpin, UID: uid})
}

// Pins returns the pinned uids, sorted (stats and tooling).
func (e *Engine) Pins() []types.UID {
	e.pinMu.RLock()
	out := make([]types.UID, 0, len(e.pins))
	for uid := range e.pins {
		out = append(out, uid)
	}
	e.pinMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

// Roots enumerates every GC root this engine knows: all tagged branch
// heads and untagged fork-on-conflict heads of every key, plus the
// pinned uids. A chunk is live iff it is reachable from one of these
// through the Merkle DAG (meta → bases, meta → tree root, index →
// children).
//
// Enumeration must not race an in-flight Put: every write path
// persists its chunks and then publishes the new head under its key's
// stripe lock, so a GC that opened its protection window mid-put could
// see neither the chunks (written before the window) nor the head
// (published after enumeration). Cycling every stripe first closes the
// gap: a put that persisted anything before the caller's window has
// published by the time its stripe is released, and a put acquiring
// its stripe after the cycle does all its persisting inside the window
// and is protected chunk by chunk.
//
// After the barrier, shields and pins are read before heads. A chunked
// put uploads (shielded) before the window, publishes its head, and only
// then drops its shields, so a put that overlaps the enumeration is
// seen at least once: its shields are still held when they are read,
// or its head is published by the time the heads are. Read the other
// way round, heads before the publish and shields after the drop, the
// uploaded delta is a root of neither and the sweep takes it.
func (e *Engine) Roots() []types.UID {
	for i := range e.locks {
		e.locks[i].Lock()
		e.locks[i].Unlock() // barrier only: wait out in-flight publishes
	}
	var roots []types.UID
	e.pinMu.RLock()
	for uid := range e.pins {
		// A pin may point at a version not written yet (pin-ahead is
		// allowed); it becomes a root once the chunk exists. Skipping
		// it here is safe: if the write lands during the collection,
		// the put itself protects the chunks.
		if e.s.Has(uid) {
			roots = append(roots, uid)
		}
	}
	e.pinMu.RUnlock()
	e.shieldMu.Lock()
	for uid := range e.shields {
		// Same reasoning as pins: a shield taken before its chunk was
		// stored is covered by the store's own protection window once
		// the Put lands mid-collection.
		if e.s.Has(uid) {
			roots = append(roots, uid)
		}
	}
	e.shieldMu.Unlock()
	if e.rootsHook != nil {
		e.rootsHook()
	}
	return e.space.AppendHeads(roots)
}

// ShieldUIDs takes transient GC shields on the given chunk ids: each
// id counts as a collection root until a matching UnshieldUIDs drops
// it. Shields are refcounted (two uploads of the same chunk need two
// releases) and never journaled — they exist to keep negotiated or
// freshly uploaded chunks alive until the version that references them
// commits, and they die with the process.
//
// A collection that has already read the shields (Roots) does not see
// a shield taken after that. A caller that shields chunks it did not
// write itself, on the strength of their being present, protects them
// in the store first; see the chunk-sync Have handler.
func (e *Engine) ShieldUIDs(ids []types.UID) {
	e.shieldMu.Lock()
	for _, id := range ids {
		e.shields[id]++
	}
	e.shieldMu.Unlock()
}

// UnshieldUIDs drops one shield reference per given id. Ids that were
// never shielded are ignored.
func (e *Engine) UnshieldUIDs(ids []types.UID) {
	e.shieldMu.Lock()
	for _, id := range ids {
		if n, ok := e.shields[id]; ok {
			if n <= 1 {
				delete(e.shields, id)
			} else {
				e.shields[id] = n - 1
			}
		}
	}
	e.shieldMu.Unlock()
}

// Shielded reports whether id currently holds a transient GC shield
// (tests and tooling).
func (e *Engine) Shielded(id types.UID) bool {
	e.shieldMu.Lock()
	defer e.shieldMu.Unlock()
	return e.shields[id] > 0
}

// GC runs one dedup-aware collection against the engine's store: it
// opens the write-protection window, marks everything reachable from
// Roots, and sweeps the store, compacting segments whose live ratio
// falls below threshold (<=0 uses store.DefaultGCThreshold). When every
// root of the previous collection is still reached, it reads and
// sweeps only the chunks written since (store.Collector). Collections
// run one at a time; reads and writes proceed concurrently, and
// versions written during the collection are protected by the window.
// Returns store.ErrNotCollectable when the underlying store cannot
// reclaim space.
func (e *Engine) GC(ctx context.Context, threshold float64) (store.GCStats, error) {
	return e.gc.Collect(ctx, e.s, func() ([]types.UID, error) {
		return e.Roots(), nil
	}, types.ChunkRefs, threshold)
}

// Diff compares two versions of the same type (the Diff operation of
// §3.2). The result depends on the value type: element-wise for sorted
// chunkables, chunk-level summary for unsorted ones, byte equality for
// primitives.
func (e *Engine) Diff(ctx context.Context, u1, u2 types.UID) (*Diff, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := types.LoadFObject(e.s, u1)
	if err != nil {
		return nil, err
	}
	b, err := types.LoadFObject(e.s, u2)
	if err != nil {
		return nil, err
	}
	if a.VType != b.VType {
		return nil, fmt.Errorf("%w: %v vs %v", ErrTypeMismatch, a.VType, b.VType)
	}
	d := &Diff{Type: a.VType}
	kind, chunkable := types.KindOfType(a.VType)
	if !chunkable {
		d.PrimitiveEqual = string(a.Data) == string(b.Data)
		return d, nil
	}
	av, err := a.Value(e.s, e.cfg)
	if err != nil {
		return nil, err
	}
	bv, err := b.Value(e.s, e.cfg)
	if err != nil {
		return nil, err
	}
	ta, tb := types.TreeOf(av), types.TreeOf(bv)
	if kind.Sorted() {
		d.Sorted, err = postree.DiffSorted(ctx, ta, tb)
	} else {
		d.Unsorted, err = postree.DiffUnsorted(ctx, ta, tb)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Diff is the result of comparing two versions.
type Diff struct {
	Type types.Type
	// Sorted is set for Map/Set comparisons.
	Sorted *postree.SortedDiff
	// Unsorted is set for Blob/List comparisons.
	Unsorted *postree.UnsortedDiff
	// PrimitiveEqual is set for primitive comparisons.
	PrimitiveEqual bool
}
