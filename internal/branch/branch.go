// Package branch implements ForkBase's branch management (paper §4.5).
// For each data key a branch table holds the heads of all branches: the
// TB-table maps user-visible tags (branch names) to head uids, and the
// UB-table is the set of untagged heads created by fork-on-conflict
// Puts. The UB-table is exactly the set of leaves of the object
// derivation graph that no tagged branch has claimed.
package branch

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"forkbase/internal/types"
)

// DefaultBranch is the branch used when callers do not name one; it
// makes the data model degrade to a plain key-value store (§3.1).
const DefaultBranch = "master"

// Errors reported by branch-table operations.
var (
	ErrBranchNotFound = errors.New("branch: branch not found")
	ErrBranchExists   = errors.New("branch: branch already exists")
	// ErrGuardFailed means a guarded Put observed a different head
	// than the caller expected (§4.5.1): someone else updated the
	// branch in between.
	ErrGuardFailed = errors.New("branch: guard uid does not match branch head")
)

// Table is the branch table for a single key. It is safe for concurrent
// use; tagged-branch updates are serialized, mirroring the servlet's
// serialization of concurrent Puts (§4.5.1).
//
// When the table belongs to a Space with an attached Journal, every
// successful mutation is recorded (still under the table's
// mutex, so the journal order equals the apply order). The in-memory
// mutation stands even when recording fails; the returned error then
// reports lost durability, not a lost update.
//
// The heads live in a heads value: a table with one tagged branch and
// no untagged head holds that branch inline and allocates no map.
type Table struct {
	mu   sync.RWMutex
	key  string   // owning key, for journal records
	sink *Journal // nil = no journaling
	h    heads
}

// NewTable returns an empty branch table.
func NewTable() *Table { return &Table{} }

// apply applies op to the heads and journals it; callers hold t.mu and
// have checked op's preconditions. In an open batch scope b the op
// takes its place in journal order now and reaches the file with the
// scope's End; a nil b flushes it at once.
func (t *Table) apply(b *Batch, op Op) error {
	t.h.apply(op)
	if t.sink == nil {
		return nil
	}
	return t.sink.record(b, t.key, op)
}

// Head returns the head uid of a tagged branch. A nil table, the
// table of a key never written, has no branches.
func (t *Table) Head(branch string) (types.UID, bool) {
	if t == nil {
		return types.UID{}, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.h.get(branch)
}

// IsHead reports whether uid is the head of any tagged branch or an
// untagged head: a version the collector treats as a root right now.
func (t *Table) IsHead(uid types.UID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.h.isHead(uid)
}

// UpdateTagged moves a tagged branch's head to uid, creating the branch
// if absent. If guard is non-nil the update succeeds only while the
// current head equals *guard (guarded Put, §4.5.1): a guard against a
// branch that does not exist fails with ErrBranchNotFound — the branch
// is gone, not merely moved — while a head mismatch on an existing
// branch is the lost race, ErrGuardFailed.
func (t *Table) UpdateTagged(branch string, uid types.UID, guard *types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if guard != nil {
		cur, ok := t.h.get(branch)
		if !ok {
			return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
		}
		if cur != *guard {
			return ErrGuardFailed
		}
	}
	return t.apply(nil, Op{Kind: OpUpdateTagged, Branch: branch, UID: uid})
}

// UpdateTaggedIn is an unguarded UpdateTagged whose journal record
// joins the batch scope b instead of being flushed on its own. The
// head moves now; the record is durable once b.End returns.
func (t *Table) UpdateTaggedIn(b *Batch, branch string, uid types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.apply(b, Op{Kind: OpUpdateTagged, Branch: branch, UID: uid})
}

// Fork creates newBranch pointing at uid. It fails if newBranch exists.
func (t *Table) Fork(newBranch string, uid types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.h.get(newBranch); ok {
		return fmt.Errorf("%w: %q", ErrBranchExists, newBranch)
	}
	return t.apply(nil, Op{Kind: OpFork, Branch: newBranch, UID: uid})
}

// Rename renames a tagged branch.
func (t *Table) Rename(branch, newName string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	uid, ok := t.h.get(branch)
	if !ok {
		return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
	}
	if _, ok := t.h.get(newName); ok {
		return fmt.Errorf("%w: %q", ErrBranchExists, newName)
	}
	return t.apply(nil, Op{Kind: OpRename, Branch: branch, Name: newName, UID: uid})
}

// Remove deletes a tagged branch. The underlying versions remain in the
// store; only the name is dropped.
func (t *Table) Remove(branch string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.h.get(branch); !ok {
		return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
	}
	return t.apply(nil, Op{Kind: OpRemove, Branch: branch})
}

// Tagged returns all tagged branch names and their heads, sorted by
// name (M9).
func (t *Table) Tagged() []TaggedBranch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.h.tagged([]TaggedBranch{})
}

// TaggedBranch pairs a branch name with its head uid.
type TaggedBranch struct {
	Name string
	Head types.UID
}

// AddUntagged records a new untagged head deriving from bases: the new
// uid enters the UB-table and any base present leaves it (§4.5.1). When
// a base is not in the table it was already derived by someone else —
// that concurrent derivation is precisely what creates a conflict
// (Figure 3b). Re-adding an existing uid (an equivalent operation
// happened before) is ignored.
func (t *Table) AddUntagged(uid types.UID, bases []types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.h.isUntagged(uid) {
		return nil
	}
	return t.apply(nil, Op{Kind: OpAddUntagged, UID: uid, Bases: bases})
}

// ReplaceUntagged atomically removes the merged heads and inserts the
// merge result (M7).
func (t *Table) ReplaceUntagged(result types.UID, merged []types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.apply(nil, Op{Kind: OpReplaceUntagged, UID: result, Bases: merged})
}

// Untagged returns all untagged heads, sorted (M10). A single element
// means the key has no conflicts.
func (t *Table) Untagged() []types.UID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.h.untaggedHeads([]types.UID{})
}

// Space tracks the branch tables of all keys managed by one servlet.
// A Space restored from a Journal carries that journal as its sink;
// every table it hands out records its mutations there.
type Space struct {
	mu     sync.RWMutex
	sink   *Journal // attached to every table this space creates
	tables map[string]*Table
}

// NewSpace returns an empty key space.
func NewSpace() *Space {
	return &Space{tables: make(map[string]*Table)}
}

// Table returns the branch table for key, creating it if needed. Only
// a new table copies key.
func (s *Space) Table(key []byte) *Table {
	s.mu.RLock()
	t, ok := s.tables[string(key)]
	s.mu.RUnlock()
	if ok {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[string(key)]; ok {
		return t
	}
	k := string(key)
	t = &Table{key: k, sink: s.sink}
	s.tables[k] = t
	return t
}

// Lookup returns the branch table for key without creating one.
func (s *Space) Lookup(key []byte) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[string(key)]
	return t, ok
}

// AppendHeads appends every key's tagged and untagged heads to dst, in
// no particular order: the collector's roots. The tables are listed
// first and read after: a table whose writer waits on a journal flush
// must not hold up, behind the space lock, every call that looks a
// key up.
func (s *Space) AppendHeads(dst []types.UID) []types.UID {
	s.mu.RLock()
	tables := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	dst = slices.Grow(dst, len(tables))
	for _, t := range tables {
		t.mu.RLock()
		dst = t.h.appendHeads(dst)
		t.mu.RUnlock()
	}
	return dst
}

// Keys returns all keys that have a branch table, sorted (M8).
func (s *Space) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for k := range s.tables {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heads is one key's TB-table and UB-table, held by Table and by the
// journal's shadow state alike. Almost every key has one tagged branch
// and no untagged head, so the first tagged branch sits inline; more is
// made at a second one, untagged at the first untagged head. Only these
// methods touch the representation.
type heads struct {
	name     string    // the inline tagged branch, valid while has
	head     types.UID // its head
	has      bool
	more     map[string]types.UID // tagged branches beside the inline one
	untagged map[types.UID]bool
}

func (h *heads) get(name string) (types.UID, bool) {
	if h.has && h.name == name {
		return h.head, true
	}
	uid, ok := h.more[name]
	return uid, ok
}

// set moves or creates a tagged branch. A name in more stays there
// even while the inline slot is free, or it would be listed twice.
func (h *heads) set(name string, uid types.UID) {
	switch _, inMore := h.more[name]; {
	case h.has && h.name == name:
		h.head = uid
	case !h.has && !inMore:
		h.name, h.head, h.has = name, uid, true
	default:
		if h.more == nil {
			h.more = make(map[string]types.UID)
		}
		h.more[name] = uid
	}
}

func (h *heads) del(name string) {
	if h.has && h.name == name {
		h.name, h.head, h.has = "", types.UID{}, false
	}
	delete(h.more, name)
}

// count returns the sizes of the TB-table and the UB-table.
func (h *heads) count() (tagged, untagged int) {
	if tagged = len(h.more); h.has {
		tagged++
	}
	return tagged, len(h.untagged)
}

// tagged appends the tagged branches to dst, sorted by name.
func (h *heads) tagged(dst []TaggedBranch) []TaggedBranch {
	at := len(dst)
	if h.has {
		dst = append(dst, TaggedBranch{Name: h.name, Head: h.head})
	}
	for name, uid := range h.more {
		dst = append(dst, TaggedBranch{Name: name, Head: uid})
	}
	slices.SortFunc(dst[at:], func(a, b TaggedBranch) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

func (h *heads) isHead(uid types.UID) bool {
	if h.untagged[uid] || h.has && h.head == uid {
		return true
	}
	for _, head := range h.more {
		if head == uid {
			return true
		}
	}
	return false
}

func (h *heads) isUntagged(uid types.UID) bool { return h.untagged[uid] }

// appendHeads appends the tagged and untagged heads to dst, unsorted.
func (h *heads) appendHeads(dst []types.UID) []types.UID {
	if h.has {
		dst = append(dst, h.head)
	}
	for _, uid := range h.more {
		dst = append(dst, uid)
	}
	for uid := range h.untagged {
		dst = append(dst, uid)
	}
	return dst
}

// apply folds one branch-table op into h: the live Table after its
// precondition checks, and the journal's replay as the ops come.
func (h *heads) apply(op Op) {
	switch op.Kind {
	case OpUpdateTagged, OpFork:
		h.set(op.Branch, op.UID)
	case OpRename:
		h.del(op.Branch)
		h.set(op.Name, op.UID)
	case OpRemove:
		h.del(op.Branch)
	case OpAddUntagged, OpReplaceUntagged:
		// An add ends without its bases, a merge with its result. The
		// add is unconditional, unlike Table.AddUntagged's duplicate
		// skip: in replay a uid already present means the op is already
		// in the snapshot, and its bases must still go, or a crash
		// before the WAL's truncate would resurrect consumed heads.
		if h.untagged == nil {
			h.untagged = make(map[types.UID]bool)
		}
		h.untagged[op.UID] = true
		for _, b := range op.Bases {
			delete(h.untagged, b)
		}
		if op.Kind == OpReplaceUntagged {
			h.untagged[op.UID] = true
		}
	}
}

// untaggedHeads appends the untagged heads to dst, sorted.
func (h *heads) untaggedHeads(dst []types.UID) []types.UID {
	at := len(dst)
	for u := range h.untagged {
		dst = append(dst, u)
	}
	sortUIDs(dst[at:])
	return dst
}

// clone copies h; the copy shares no map with it.
func (h *heads) clone() heads {
	c := *h
	c.more, c.untagged = maps.Clone(h.more), maps.Clone(h.untagged)
	return c
}

// sortUIDs sorts by bytes, the order of the uids' hex strings.
func sortUIDs(u []types.UID) {
	slices.SortFunc(u, func(a, b types.UID) int { return bytes.Compare(a[:], b[:]) })
}
