// Package branch implements ForkBase's branch management (paper §4.5).
// For each data key a branch table holds the heads of all branches: the
// TB-table maps user-visible tags (branch names) to head uids, and the
// UB-table is the set of untagged heads created by fork-on-conflict
// Puts. The UB-table is exactly the set of leaves of the object
// derivation graph that no tagged branch has claimed.
package branch

import (
	"errors"
	"fmt"
	"sort"
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
// When the table belongs to a Space with an attached journal Sink,
// every successful mutation is recorded (still under the table's
// mutex, so the journal order equals the apply order). The in-memory
// mutation stands even when recording fails; the returned error then
// reports lost durability, not a lost update.
type Table struct {
	mu       sync.RWMutex
	key      string // owning key, for journal records
	sink     Sink   // nil = no journaling
	tagged   map[string]types.UID
	untagged map[types.UID]bool
}

// NewTable returns an empty branch table.
func NewTable() *Table {
	return &Table{
		tagged:   make(map[string]types.UID),
		untagged: make(map[types.UID]bool),
	}
}

// record journals one applied mutation; callers hold t.mu.
func (t *Table) record(op Op) error {
	return t.recordIn(nil, op)
}

// recordIn is record into an open batch scope: the op takes its place
// in journal order now, under t.mu, and reaches the file with the
// scope's End. A nil scope records through the table's own sink.
func (t *Table) recordIn(b *Batch, op Op) error {
	if t.sink == nil {
		return nil
	}
	op.Key = []byte(t.key)
	if b != nil {
		return b.Record(op)
	}
	return t.sink.Record(op)
}

// Head returns the head uid of a tagged branch.
func (t *Table) Head(branch string) (types.UID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	uid, ok := t.tagged[branch]
	return uid, ok
}

// IsHead reports whether uid is the head of any tagged branch or an
// untagged head: a version the collector treats as a root right now.
func (t *Table) IsHead(uid types.UID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.untagged[uid] {
		return true
	}
	for _, head := range t.tagged {
		if head == uid {
			return true
		}
	}
	return false
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
		cur, ok := t.tagged[branch]
		if !ok {
			return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
		}
		if cur != *guard {
			return ErrGuardFailed
		}
	}
	t.tagged[branch] = uid
	return t.record(Op{Kind: OpUpdateTagged, Branch: branch, UID: uid})
}

// UpdateTaggedIn is an unguarded UpdateTagged whose journal record
// joins the batch scope b instead of being flushed on its own. The
// head moves now; the record is durable once b.End returns.
func (t *Table) UpdateTaggedIn(b *Batch, branch string, uid types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tagged[branch] = uid
	return t.recordIn(b, Op{Kind: OpUpdateTagged, Branch: branch, UID: uid})
}

// Fork creates newBranch pointing at uid. It fails if newBranch exists.
func (t *Table) Fork(newBranch string, uid types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.tagged[newBranch]; ok {
		return fmt.Errorf("%w: %q", ErrBranchExists, newBranch)
	}
	t.tagged[newBranch] = uid
	return t.record(Op{Kind: OpFork, Branch: newBranch, UID: uid})
}

// Rename renames a tagged branch.
func (t *Table) Rename(branch, newName string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	uid, ok := t.tagged[branch]
	if !ok {
		return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
	}
	if _, ok := t.tagged[newName]; ok {
		return fmt.Errorf("%w: %q", ErrBranchExists, newName)
	}
	delete(t.tagged, branch)
	t.tagged[newName] = uid
	return t.record(Op{Kind: OpRename, Branch: branch, Name: newName, UID: uid})
}

// Remove deletes a tagged branch. The underlying versions remain in the
// store; only the name is dropped.
func (t *Table) Remove(branch string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.tagged[branch]; !ok {
		return fmt.Errorf("%w: %q", ErrBranchNotFound, branch)
	}
	delete(t.tagged, branch)
	return t.record(Op{Kind: OpRemove, Branch: branch})
}

// Tagged returns all tagged branch names and their heads, sorted by
// name (M9).
func (t *Table) Tagged() []TaggedBranch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TaggedBranch, 0, len(t.tagged))
	for name, uid := range t.tagged {
		out = append(out, TaggedBranch{Name: name, Head: uid})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	if t.untagged[uid] {
		return nil
	}
	t.untagged[uid] = true
	for _, b := range bases {
		delete(t.untagged, b)
	}
	return t.record(Op{Kind: OpAddUntagged, UID: uid, Bases: bases})
}

// ReplaceUntagged atomically removes the merged heads and inserts the
// merge result (M7).
func (t *Table) ReplaceUntagged(result types.UID, merged []types.UID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, u := range merged {
		delete(t.untagged, u)
	}
	t.untagged[result] = true
	return t.record(Op{Kind: OpReplaceUntagged, UID: result, Bases: merged})
}

// Untagged returns all untagged heads in unspecified order (M10). A
// single element means the key has no conflicts.
func (t *Table) Untagged() []types.UID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]types.UID, 0, len(t.untagged))
	for uid := range t.untagged {
		out = append(out, uid)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].String() < out[j].String()
	})
	return out
}

// Space tracks the branch tables of all keys managed by one servlet.
// A Space restored from a Journal carries that journal as its sink;
// every table it hands out records its mutations there.
type Space struct {
	mu     sync.RWMutex
	sink   Sink // attached to every table this space creates
	tables map[string]*Table
}

// NewSpace returns an empty key space.
func NewSpace() *Space {
	return &Space{tables: make(map[string]*Table)}
}

// Table returns the branch table for key, creating it if needed.
func (s *Space) Table(key []byte) *Table {
	k := string(key)
	s.mu.RLock()
	t, ok := s.tables[k]
	s.mu.RUnlock()
	if ok {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[k]; ok {
		return t
	}
	t = NewTable()
	t.key, t.sink = k, s.sink
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
