// Package servlet implements the request-execution node of a ForkBase
// deployment (paper §4.1): the branch tables and object manager (the
// core engine) behind a single execution thread. Each servlet owns a
// disjoint slice of the key space and serializes request execution the
// way the paper's single execution thread does. The package also
// defines the access controller (ACL); the requests a servlet executes
// consult it themselves — the root package's policy layer is its one
// caller — so the servlet holds no reference to it.
package servlet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"forkbase/internal/core"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// Permission is an access level; higher levels include lower ones.
type Permission byte

const (
	// PermNone grants nothing.
	PermNone Permission = iota
	// PermRead grants Get/Track/List operations.
	PermRead
	// PermWrite grants Put/Fork/Merge operations.
	PermWrite
	// PermAdmin additionally grants branch Rename/Remove and ACL edits.
	PermAdmin
)

// ErrAccessDenied is returned when the access controller rejects a
// request before execution.
var ErrAccessDenied = errors.New("servlet: access denied")

// ACL is a branch-based access controller. Rules are granted per
// (user, key, branch); the empty string is a wildcard for key or
// branch. The zero-value ACL denies everything except when Open is set.
type ACL struct {
	mu sync.RWMutex
	// Open disables access control entirely (embedded single-user mode).
	open  bool
	rules map[string]Permission // "user\x00key\x00branch" -> permission
}

// NewACL returns an ACL. open=true grants everyone everything, the
// embedded default.
func NewACL(open bool) *ACL {
	return &ACL{open: open, rules: make(map[string]Permission)}
}

func aclKey(user, key, branch string) string {
	return user + "\x00" + key + "\x00" + branch
}

// IsOpen reports whether the controller admits everything.
func (a *ACL) IsOpen() bool { return a.open }

// Grant gives user permission p on key/branch. Empty key or branch acts
// as a wildcard.
func (a *ACL) Grant(user, key, branch string, p Permission) {
	a.mu.Lock()
	a.rules[aclKey(user, key, branch)] = p
	a.mu.Unlock()
}

// Check reports whether user holds at least permission need on
// key/branch.
func (a *ACL) Check(user, key, branch string, need Permission) error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.open {
		return nil
	}
	for _, k := range []string{
		aclKey(user, key, branch),
		aclKey(user, key, ""),
		aclKey(user, "", branch),
		aclKey(user, "", ""),
	} {
		if p, ok := a.rules[k]; ok && p >= need {
			return nil
		}
	}
	return fmt.Errorf("%w: user %q needs %d on %q/%q", ErrAccessDenied, user, need, key, branch)
}

// Servlet executes data-access requests against its engine. Execution
// is serialized through a single worker goroutine, mirroring the
// one-request-execution-thread configuration used throughout the
// paper's evaluation (§6).
type Servlet struct {
	ID  int
	eng *core.Engine

	reqs chan func()
	wg   sync.WaitGroup
	once sync.Once
}

// New returns a running servlet over the given chunk store.
func New(id int, s store.Store, cfg postree.Config) *Servlet {
	sv := &Servlet{
		ID:   id,
		eng:  core.NewEngine(s, cfg),
		reqs: make(chan func(), 256),
	}
	sv.wg.Add(1)
	go sv.loop()
	return sv
}

func (sv *Servlet) loop() {
	defer sv.wg.Done()
	for fn := range sv.reqs {
		fn()
	}
}

// Engine exposes the underlying engine. Mutating calls made directly on
// it bypass the servlet's serialization; use Exec for those.
func (sv *Servlet) Engine() *core.Engine { return sv.eng }

// Exec runs fn on the servlet's execution thread and waits for it.
func (sv *Servlet) Exec(fn func(eng *core.Engine) error) error {
	done := make(chan error, 1)
	sv.reqs <- func() { done <- fn(sv.eng) }
	return <-done
}

// ExecCtx runs fn on the servlet's execution thread, honouring ctx: a
// context cancelled before fn starts aborts the request (fn never
// runs); once fn is executing it runs to completion, but the caller
// stops waiting and gets ctx.Err().
func (sv *Servlet) ExecCtx(ctx context.Context, fn func(eng *core.Engine) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan error, 1)
	abandoned := make(chan struct{})
	req := func() {
		select {
		case <-abandoned:
			return
		default:
		}
		done <- fn(sv.eng)
	}
	// The enqueue itself honours ctx: a full queue must not strand a
	// cancelled caller.
	select {
	case sv.reqs <- req:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		close(abandoned)
		return ctx.Err()
	}
}

// Close stops the execution loop after draining queued requests.
func (sv *Servlet) Close() {
	sv.once.Do(func() { close(sv.reqs) })
	sv.wg.Wait()
}
