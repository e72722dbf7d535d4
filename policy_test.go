package forkbase

import (
	"context"
	"errors"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/wire"
)

// TestPolicyOptionGrammar asserts the option grammar of the Store ops
// once, on the contract every backend runs: which combinations
// of WithBranch / WithBase / WithGuard an op refuses with
// ErrBadOptions. It runs twice — open, and under a closed ACL that
// grants the caller nothing — because validation precedes the verdict:
// a malformed call is ErrBadOptions whoever makes it, and a
// well-formed one from a stranger is ErrAccessDenied.
func TestPolicyOptionGrammar(t *testing.T) {
	ctx := context.Background()
	eng := core.NewEngine(store.NewMemStore(), postree.DefaultConfig())
	head, err := eng.Put([]byte("k"), DefaultBranch, String("v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Fork([]byte("k"), DefaultBranch, "dev"); err != nil {
		t.Fatal(err)
	}
	var sib [2]UID
	for i := range sib {
		if sib[i], err = eng.PutBase([]byte("k"), head, String("sibling"), nil); err != nil {
			t.Fatal(err)
		}
	}

	shapes := []struct {
		name string
		opts []Option
	}{
		{"none", nil},
		{"branch", []Option{WithBranch("dev")}},
		{"base", []Option{WithBase(head)}},
		{"branch+base", []Option{WithBranch("dev"), WithBase(head)}},
		{"guard+base", []Option{WithGuard(head), WithBase(head)}},
		{"two bases", []Option{WithBase(sib[0]), WithBase(sib[1])}},
		{"branch+two bases", []Option{WithBranch("dev"), WithBase(sib[0]), WithBase(sib[1])}},
	}
	ops := []struct {
		name string
		run  func(acl *ACL, o *callOpts) error
		bad  map[string]bool // shapes the op refuses
	}{
		{"get", func(acl *ACL, o *callOpts) error {
			_, err := contract{eng, acl}.get(ctx, "k", *o)
			return err
		}, map[string]bool{"branch+base": true, "branch+two bases": true}},
		{"put", func(acl *ACL, o *callOpts) error {
			_, err := contract{eng, acl}.put(ctx, "k", String("v"), nil, *o)
			return err
		}, map[string]bool{"branch+base": true, "guard+base": true, "branch+two bases": true}},
		{"batch put", func(acl *ACL, o *callOpts) error {
			_, err := contract{eng, acl}.batch(ctx, NewBatch().put("k", String("v"), o), callOpts{CallOptions: wire.CallOptions{User: o.User}})
			return err
		}, map[string]bool{"base": true, "branch+base": true, "guard+base": true, "two bases": true, "branch+two bases": true}},
		{"fork", func(acl *ACL, o *callOpts) error {
			return contract{eng, acl}.fork(ctx, "k", "nb", *o)
		}, map[string]bool{"branch+base": true, "branch+two bases": true}},
		{"track", func(acl *ACL, o *callOpts) error {
			_, err := contract{eng, acl}.track(ctx, "k", 0, 1, *o)
			return err
		}, map[string]bool{"branch+base": true, "branch+two bases": true}},
		{"merge into a branch", func(acl *ACL, o *callOpts) error {
			_, _, err := contract{eng, acl}.merge(ctx, "k", DefaultBranch, *o)
			return err
		}, map[string]bool{"branch+base": true, "two bases": true, "branch+two bases": true}},
		{"merge untagged (empty target)", func(acl *ACL, o *callOpts) error {
			_, _, err := contract{eng, acl}.merge(ctx, "k", "", *o)
			return err
		}, map[string]bool{"none": true, "branch": true, "base": true, "branch+base": true, "guard+base": true, "branch+two bases": true}},
	}

	for _, acl := range []*ACL{nil, NewACL(false)} {
		for _, op := range ops {
			for _, sh := range shapes {
				o := resolveOpts(sh.opts)
				o.User = "stranger"
				o.resolver = ChooseA
				err := op.run(acl, &o)
				if got := errors.Is(err, ErrBadOptions); got != op.bad[sh.name] {
					t.Errorf("%s with %s (closed=%v): err = %v, ErrBadOptions want %v", op.name, sh.name, acl != nil, err, op.bad[sh.name])
				}
				if acl != nil && !op.bad[sh.name] && !errors.Is(err, ErrAccessDenied) {
					t.Errorf("%s with %s under a closed ACL: err = %v, want ErrAccessDenied", op.name, sh.name, err)
				}
			}
		}
	}
}

// TestPolicyPinForeignVersion: under a closed ACL, write on a key lets
// its holder pin that key's versions and not-yet-written uids, never
// another key's version; open mode admits everything.
func TestPolicyPinForeignVersion(t *testing.T) {
	ctx := context.Background()
	eng := core.NewEngine(store.NewMemStore(), postree.DefaultConfig())
	mine, err := eng.Put([]byte("mine"), DefaultBranch, String("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := eng.Put([]byte("theirs"), DefaultBranch, String("v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	acl := NewACL(false)
	acl.Grant("tenant", "mine", "", PermWrite)
	o := callOpts{CallOptions: wire.CallOptions{User: "tenant"}}
	for _, pin := range []bool{true, false} {
		if err := (contract{eng, acl}).pin(ctx, "mine", theirs, pin, o); !errors.Is(err, ErrAccessDenied) {
			t.Errorf("pin=%v of another key's version: %v, want ErrAccessDenied", pin, err)
		}
		if err := (contract{eng, nil}).pin(ctx, "mine", theirs, pin, o); err != nil {
			t.Errorf("pin=%v of another key's version in open mode: %v", pin, err)
		}
		if err := (contract{eng, acl}).pin(ctx, "mine", mine, pin, o); err != nil {
			t.Errorf("pin=%v of own version: %v", pin, err)
		}
		if err := (contract{eng, acl}).pin(ctx, "mine", UID{0xAB}, pin, o); err != nil {
			t.Errorf("pin=%v ahead of the write: %v", pin, err)
		}
	}
}
