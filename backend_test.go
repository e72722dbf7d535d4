package forkbase_test

// How the server reaches the store it serves, and what a remote client
// checks of the answers it gets back.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	forkbase "forkbase"
)

// overrideStore embeds a DB and overrides two of its Store methods,
// counting the calls that reach them.
type overrideStore struct {
	*forkbase.DB
	gets, lists atomic.Int64
}

func (s *overrideStore) Get(ctx context.Context, key string, opts ...forkbase.Option) (*forkbase.FObject, error) {
	s.gets.Add(1)
	return s.DB.Get(ctx, key, opts...)
}

func (s *overrideStore) ListBranches(ctx context.Context, key string, opts ...forkbase.Option) (forkbase.BranchList, error) {
	s.lists.Add(1)
	bl, err := s.DB.ListBranches(ctx, key, opts...)
	bl.Tagged = append(bl.Tagged, forkbase.TaggedBranch{Name: "override"})
	return bl, err
}

// TestServerCallsWrapperOverride: a Store that embeds a *DB is not a
// *DB. The server reaches it through its methods, so a remote call
// runs the wrapper's override, with the caller's options, and never
// the DB method the wrapper hides.
func TestServerCallsWrapperOverride(t *testing.T) {
	ws := &overrideStore{DB: forkbase.Open()}
	addr, _ := startServer(t, ws, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	if _, err := rc.Put(ctx, "k", forkbase.String("main")); err != nil {
		t.Fatal(err)
	}
	side, err := rc.Put(ctx, "k", forkbase.String("side"), forkbase.WithBranch("side"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := rc.Get(ctx, "k", forkbase.WithBranch("side"))
	if err != nil || o.UID() != side {
		t.Fatalf("Get(WithBranch(side)) = %v, %v; want %s", o, err, side.Short())
	}
	if n := ws.gets.Load(); n != 1 {
		t.Fatalf("the wrapper's Get ran %d times for one remote Get, want 1", n)
	}
	bl, err := rc.ListBranches(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if n := ws.lists.Load(); n != 1 || len(bl.Tagged) != 3 || bl.Tagged[2].Name != "override" {
		t.Fatalf("ListBranches = %+v after %d calls of the override; want master, side and the override's entry", bl.Tagged, n)
	}
}

// lyingStore answers Track with a history altered as lie says.
type lyingStore struct {
	forkbase.Store
	lie atomic.Int32
}

// The ways lyingStore alters a Track answer.
const (
	honest int32 = iota
	dropMiddle
	empty
	reorder
	truncate
	substitute // the first version, by a sibling from the same base
)

func (s *lyingStore) Track(ctx context.Context, key string, from, to int, opts ...forkbase.Option) ([]*forkbase.FObject, error) {
	hist, err := s.Store.Track(ctx, key, from, to, opts...)
	if err != nil || len(hist) < 3 {
		return hist, err
	}
	switch s.lie.Load() {
	case dropMiddle:
		hist = append(hist[:1], hist[2:]...)
	case empty:
		hist = nil
	case reorder:
		hist[1], hist[2] = hist[2], hist[1]
	case truncate:
		hist = hist[:len(hist)-1]
	case substitute:
		sib, err := s.Store.Get(ctx, key, forkbase.WithBranch("sibling"))
		if err != nil {
			return nil, err
		}
		hist[0] = sib
	}
	return hist, nil
}

// TestRemoteTrackChecksChain: a Track answer is checked against what
// its uids commit to. A server that drops, reorders or truncates the
// history, or substitutes the version it starts from, costs the caller
// ErrCorrupt, not a wrong history; honest answers, short ones included,
// pass. Each case is caught by a different check.
func TestRemoteTrackChecksChain(t *testing.T) {
	ls := &lyingStore{Store: forkbase.Open()}
	addr, _ := startServer(t, ls, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	var uids []forkbase.UID // uids[i] is the version at depth i
	for i := 0; i < 5; i++ {
		uid, err := rc.Put(ctx, "k", forkbase.String(fmt.Sprint("v", i)))
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, uid)
	}
	head := uids[4]
	// The sibling derives from the head's base, as the head does.
	if err := rc.Fork(ctx, "k", "sibling", forkbase.WithBase(uids[3])); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Put(ctx, "k", forkbase.String("sibling"), forkbase.WithBranch("sibling")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		from, to int
		opts     []forkbase.Option
		want     int // versions of an honest answer
	}{
		{"full range", 0, 3, nil, 4},
		{"behind a base", 0, 3, []forkbase.Option{forkbase.WithBase(head)}, 4},
		{"past the first version", 1, 9, nil, 4},
		{"past the end", 6, 9, nil, 0},
	} {
		hist, err := rc.Track(ctx, "k", tc.from, tc.to, tc.opts...)
		if err != nil || len(hist) != tc.want {
			t.Fatalf("honest Track %s = %d versions, %v; want %d", tc.name, len(hist), err, tc.want)
		}
	}

	for _, tc := range []struct {
		name     string
		lie      int32
		from, to int
		opts     []forkbase.Option
	}{
		{"with a version dropped", dropMiddle, 0, 9, nil},
		{"empty", empty, 0, 3, nil},
		{"reordered", reorder, 0, 3, nil},
		{"truncated", truncate, 0, 3, nil},
		{"substituted base", substitute, 0, 3, []forkbase.Option{forkbase.WithBase(head)}},
	} {
		ls.lie.Store(tc.lie)
		if hist, err := rc.Track(ctx, "k", tc.from, tc.to, tc.opts...); !errors.Is(err, forkbase.ErrCorrupt) {
			t.Errorf("Track answered %s = %d versions, %v; want ErrCorrupt", tc.name, len(hist), err)
		}
	}
}
