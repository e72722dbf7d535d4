package servlet

import (
	"context"
	"errors"
	"sync"
	"testing"

	"forkbase/internal/core"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

func TestACLWildcardsAndLevels(t *testing.T) {
	acl := NewACL(false)
	acl.Grant("alice", "doc", "master", PermWrite)
	acl.Grant("bob", "doc", "", PermRead)
	acl.Grant("root", "", "", PermAdmin)

	cases := []struct {
		user, key, branch string
		need              Permission
		ok                bool
	}{
		{"alice", "doc", "master", PermWrite, true},
		{"alice", "doc", "master", PermRead, true}, // write implies read
		{"alice", "doc", "dev", PermRead, false},
		{"alice", "other", "master", PermRead, false},
		{"bob", "doc", "anything", PermRead, true},
		{"bob", "doc", "anything", PermWrite, false},
		{"root", "any", "any", PermAdmin, true},
		{"stranger", "doc", "master", PermRead, false},
	}
	for _, tc := range cases {
		err := acl.Check(tc.user, tc.key, tc.branch, tc.need)
		if (err == nil) != tc.ok {
			t.Errorf("Check(%q,%q,%q,%d) = %v, want ok=%v",
				tc.user, tc.key, tc.branch, tc.need, err, tc.ok)
		}
		if err != nil && !errors.Is(err, ErrAccessDenied) {
			t.Errorf("error not ErrAccessDenied: %v", err)
		}
	}
}

func TestOpenACLAllowsAll(t *testing.T) {
	acl := NewACL(true)
	if err := acl.Check("anyone", "k", "b", PermAdmin); err != nil {
		t.Fatal(err)
	}
}

func TestServletSerializesExecution(t *testing.T) {
	sv := New(0, store.NewMemStore(), postree.DefaultConfig())
	defer sv.Close()

	inFlight := 0
	max := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv.Exec(func(eng *core.Engine) error {
				mu.Lock()
				inFlight++
				if inFlight > max {
					max = inFlight
				}
				mu.Unlock()
				_, err := eng.Put([]byte("k"), "master", types.String("v"), nil)
				mu.Lock()
				inFlight--
				mu.Unlock()
				return err
			})
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("execution not serialized: %d concurrent requests", max)
	}
	var n int
	sv.Exec(func(eng *core.Engine) error {
		hist, err := eng.Track(context.Background(), []byte("k"), "master", 0, 100)
		n = len(hist)
		return err
	})
	if n != 32 {
		t.Fatalf("history %d, want 32", n)
	}
}

// TestACLExactGrant: a grant on one (key, branch) admits exactly its
// holder, at up to the granted level, and nobody else.
func TestACLExactGrant(t *testing.T) {
	acl := NewACL(false)
	acl.Grant("writer", "k", "master", PermWrite)
	if err := acl.Check("writer", "k", "master", PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := acl.Check("intruder", "k", "master", PermRead); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("intruder passed access check: %v", err)
	}
}
