package forkbase_test

// GC conformance: the garbage collector must behave identically
// through the embedded DB and the cluster client — never losing a
// reachable version (including under concurrent writers), keeping
// Track history behind live heads intact, and actually reclaiming
// chunks only a removed branch referenced.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	forkbase "forkbase"
)

// storedBytes probes how many chunk bytes a backend currently holds.
func storedBytes(t *testing.T, st forkbase.Store) int64 {
	t.Helper()
	switch x := st.(type) {
	case *forkbase.DB:
		return x.Stats().Bytes
	case *forkbase.ClusterClient:
		var total int64
		for _, b := range x.Cluster().NodeStorageBytes() {
			total += b
		}
		return total
	case *forkbase.RemoteStore:
		s, err := x.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s.Bytes
	}
	t.Fatalf("unknown backend %T", st)
	return 0
}

// blobText materializes a Blob value of a fetched version.
func blobText(t *testing.T, st forkbase.Store, key string, o *forkbase.FObject) []byte {
	t.Helper()
	v, err := st.Value(context.Background(), key, o)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	data, err := blob.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGCConformance(t *testing.T) {
	ctx := context.Background()
	scenarios := []struct {
		name string
		run  func(t *testing.T, st forkbase.Store)
	}{
		{"RemovedBranchReclaimed", func(t *testing.T, st forkbase.Store) {
			rng := rand.New(rand.NewSource(5))
			keep := make([]byte, 8<<10)
			rng.Read(keep)
			if _, err := st.Put(ctx, "doc", forkbase.NewBlob(keep)); err != nil {
				t.Fatal(err)
			}
			// A scratch branch accumulates an order of magnitude more
			// data than master, then disappears.
			if err := st.Fork(ctx, "doc", "scratch"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				big := make([]byte, 16<<10)
				rng.Read(big)
				if _, err := st.Put(ctx, "doc", forkbase.NewBlob(big), forkbase.WithBranch("scratch")); err != nil {
					t.Fatal(err)
				}
			}
			before := storedBytes(t, st)
			if err := st.RemoveBranch(ctx, "doc", "scratch"); err != nil {
				t.Fatal(err)
			}
			stats, err := st.GC(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Reclaimed == 0 {
				t.Fatalf("nothing reclaimed: %+v", stats)
			}
			after := storedBytes(t, st)
			if after > before/2 {
				t.Fatalf("scratch-only chunks not reclaimed: %d -> %d bytes", before, after)
			}
			// Master is untouched, bit for bit.
			o, err := st.Get(ctx, "doc")
			if err != nil {
				t.Fatal(err)
			}
			if got := blobText(t, st, "doc", o); !bytes.Equal(got, keep) {
				t.Fatalf("master content changed after GC")
			}
			// The removed branch's head versions are gone for real.
			if _, err := st.ListBranches(ctx, "doc"); err != nil {
				t.Fatal(err)
			}
		}},
		{"TrackHistorySurvives", func(t *testing.T, st forkbase.Store) {
			const versions = 8
			var uids []forkbase.UID
			for i := 0; i < versions; i++ {
				uid, err := st.Put(ctx, "hist", forkbase.String(fmt.Sprintf("v%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				uids = append(uids, uid)
			}
			// Garbage beside it, so the sweep has something to chew on.
			if err := st.Fork(ctx, "hist", "tmp"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "hist", forkbase.String("junk"), forkbase.WithBranch("tmp")); err != nil {
				t.Fatal(err)
			}
			if err := st.RemoveBranch(ctx, "hist", "tmp"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GC(ctx); err != nil {
				t.Fatal(err)
			}
			// The whole derivation chain behind the live head must have
			// survived the collection.
			hist, err := st.Track(ctx, "hist", 0, versions-1)
			if err != nil {
				t.Fatal(err)
			}
			if len(hist) != versions {
				t.Fatalf("history truncated by GC: %d of %d versions", len(hist), versions)
			}
			for i, o := range hist {
				want := fmt.Sprintf("v%d", versions-1-i)
				if string(o.Data) != want {
					t.Fatalf("history[%d] = %q, want %q", i, o.Data, want)
				}
			}
			// Pinned-by-uid reads of old versions still work (M2).
			for i, uid := range uids {
				o, err := st.Get(ctx, "hist", forkbase.WithBase(uid))
				if err != nil {
					t.Fatalf("version %d unreachable after GC: %v", i, err)
				}
				if string(o.Data) != fmt.Sprintf("v%d", i) {
					t.Fatalf("version %d content changed", i)
				}
			}
		}},
		{"UntaggedHeadsSurvive", func(t *testing.T, st forkbase.Store) {
			base, err := st.Put(ctx, "conf", forkbase.String("base"))
			if err != nil {
				t.Fatal(err)
			}
			// Two fork-on-conflict siblings; neither has a branch name,
			// both must count as GC roots.
			s1, err := st.Put(ctx, "conf", forkbase.String("sib1"), forkbase.WithBase(base))
			if err != nil {
				t.Fatal(err)
			}
			s2, err := st.Put(ctx, "conf", forkbase.String("sib2"), forkbase.WithBase(base))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.GC(ctx); err != nil {
				t.Fatal(err)
			}
			for _, uid := range []forkbase.UID{s1, s2, base} {
				if _, err := st.Get(ctx, "conf", forkbase.WithBase(uid)); err != nil {
					t.Fatalf("untagged lineage lost: %v", err)
				}
			}
			bl, err := st.ListBranches(ctx, "conf")
			if err != nil || len(bl.Untagged) != 2 {
				t.Fatalf("untagged heads after GC: %+v (%v)", bl, err)
			}
		}},
		{"PinnedSurvives", func(t *testing.T, st forkbase.Store) {
			uid, err := st.Put(ctx, "pinme", forkbase.NewBlob([]byte("precious bytes")))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.RemoveBranch(ctx, "pinme", forkbase.DefaultBranch); err != nil {
				t.Fatal(err)
			}
			// No branch reaches the version any more; only the pin does.
			if err := st.Pin(ctx, "pinme", uid); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GC(ctx); err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "pinme", forkbase.WithBase(uid))
			if err != nil {
				t.Fatalf("pinned version collected: %v", err)
			}
			if got := blobText(t, st, "pinme", o); string(got) != "precious bytes" {
				t.Fatalf("pinned content changed: %q", got)
			}
			// Unpinned, the next collection reclaims it.
			if err := st.Unpin(ctx, "pinme", uid); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GC(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "pinme", forkbase.WithBase(uid)); err == nil {
				t.Fatal("unpinned unreachable version survived GC")
			}
		}},
		{"PinAheadOfWriteIsInert", func(t *testing.T, st forkbase.Store) {
			// Pinning a uid that does not exist yet must not wedge the
			// collector (pin-ahead is allowed and simply inert).
			var future forkbase.UID
			future[0] = 0xAB
			if err := st.Pin(ctx, "k", future); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "k", forkbase.String("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.GC(ctx); err != nil {
				t.Fatalf("GC wedged by unwritten pin: %v", err)
			}
			if _, err := st.Get(ctx, "k"); err != nil {
				t.Fatal(err)
			}
		}},
		{"ConcurrentWritersNeverLose", func(t *testing.T, st forkbase.Store) {
			const writers = 4
			const versionsPer = 20
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := fmt.Sprintf("wkey-%d", w)
					for i := 0; i < versionsPer; i++ {
						if _, err := st.Put(ctx, key, forkbase.String(fmt.Sprintf("w%d-v%d", w, i))); err != nil {
							errs <- fmt.Errorf("writer %d put %d: %w", w, i, err)
							return
						}
						// Churn: branches created and removed mid-flight
						// feed the collector garbage while it runs.
						br := fmt.Sprintf("tmp-%d", i)
						if err := st.Fork(ctx, key, br); err != nil {
							errs <- err
							return
						}
						if _, err := st.Put(ctx, key, forkbase.String("scratch"), forkbase.WithBranch(br)); err != nil {
							errs <- err
							return
						}
						if err := st.RemoveBranch(ctx, key, br); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			gcDone := make(chan struct{})
			go func() {
				defer close(gcDone)
				for i := 0; i < 6; i++ {
					if _, err := st.GC(ctx); err != nil {
						errs <- fmt.Errorf("gc round %d: %w", i, err)
						return
					}
				}
			}()
			wg.Wait()
			<-gcDone
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// One final collection with the dust settled, then every
			// writer's full history must be reachable and correct.
			if _, err := st.GC(ctx); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < writers; w++ {
				key := fmt.Sprintf("wkey-%d", w)
				hist, err := st.Track(ctx, key, 0, versionsPer-1)
				if err != nil {
					t.Fatalf("writer %d history: %v", w, err)
				}
				if len(hist) != versionsPer {
					t.Fatalf("writer %d lost history: %d of %d", w, len(hist), versionsPer)
				}
				for i, o := range hist {
					want := fmt.Sprintf("w%d-v%d", w, versionsPer-1-i)
					if string(o.Data) != want {
						t.Fatalf("writer %d history[%d] = %q, want %q", w, i, o.Data, want)
					}
				}
			}
		}},
	}
	for _, sc := range scenarios {
		for name, st := range stores(t, nil) {
			st := st
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				defer st.Close()
				sc.run(t, st)
			})
		}
	}
}

// TestGCAccessControl: collection deletes data store-wide, so a closed
// ACL admits it only with global admin permission — on both backends.
func TestGCAccessControl(t *testing.T) {
	ctx := context.Background()
	acl := forkbase.NewACL(false)
	acl.Grant("root", "", "", forkbase.PermAdmin)
	acl.Grant("reader", "", "", forkbase.PermRead)
	acl.Grant("tenant", "mine", "", forkbase.PermWrite)
	for name, st := range stores(t, acl) {
		st := st
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			if _, err := st.GC(ctx, forkbase.WithUser("reader")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("reader GC: %v, want ErrAccessDenied", err)
			}
			if _, err := st.GC(ctx, forkbase.WithUser("root")); err != nil {
				t.Fatalf("root GC: %v", err)
			}
			// Pins gate collection survival, so placing or removing one
			// requires write permission like any other mutation.
			var uid forkbase.UID
			uid[0] = 1
			if err := st.Pin(ctx, "k", uid, forkbase.WithUser("reader")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("reader Pin: %v, want ErrAccessDenied", err)
			}
			if err := st.Unpin(ctx, "k", uid, forkbase.WithUser("reader")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("reader Unpin: %v, want ErrAccessDenied", err)
			}
			if err := st.Pin(ctx, "k", uid, forkbase.WithUser("root")); err != nil {
				t.Fatalf("root Pin: %v", err)
			}
			// Write on one key is no licence to root — or un-root —
			// another key's version: the uid must belong to the key the
			// caller holds write on.
			theirs, err := st.Put(ctx, coLocated(st, "mine"), forkbase.String("not the tenant's"), forkbase.WithUser("root"))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Pin(ctx, "mine", theirs, forkbase.WithUser("tenant")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("tenant pinned another key's version: %v, want ErrAccessDenied", err)
			}
			if err := st.Unpin(ctx, "mine", theirs, forkbase.WithUser("tenant")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("tenant unpinned another key's version: %v, want ErrAccessDenied", err)
			}
			own, err := st.Put(ctx, "mine", forkbase.String("the tenant's"), forkbase.WithUser("tenant"))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Pin(ctx, "mine", own, forkbase.WithUser("tenant")); err != nil {
				t.Fatalf("tenant pinning its own version: %v", err)
			}
		})
	}
}

// TestGCAutoAfterRemovals: WithAutoGC triggers collection every n-th
// branch removal on both backends.
func TestGCAutoAfterRemovals(t *testing.T) {
	ctx := context.Background()
	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 3, TwoLayer: true, AutoGCEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]forkbase.Store{
		"embedded": forkbase.Open(forkbase.WithAutoGC(2)),
		"cluster":  cc,
	}
	for name, st := range backends {
		st := st
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			if _, err := st.Put(ctx, "k", forkbase.String("keep")); err != nil {
				t.Fatal(err)
			}
			var dropped []forkbase.UID
			for i := 0; i < 2; i++ {
				br := fmt.Sprintf("b%d", i)
				if err := st.Fork(ctx, "k", br); err != nil {
					t.Fatal(err)
				}
				uid, err := st.Put(ctx, "k", forkbase.NewBlob(bytes.Repeat([]byte{byte(i)}, 4<<10)),
					forkbase.WithBranch(br))
				if err != nil {
					t.Fatal(err)
				}
				dropped = append(dropped, uid)
				if err := st.RemoveBranch(ctx, "k", br); err != nil {
					t.Fatal(err)
				}
			}
			// The second removal crossed the AutoGCEvery=2 mark, so the
			// dropped branches' versions are gone without an explicit GC.
			for _, uid := range dropped {
				if _, err := st.Get(ctx, "k", forkbase.WithBase(uid)); err == nil {
					t.Fatal("auto-GC did not run: dropped version still readable")
				}
			}
			if _, err := st.Get(ctx, "k"); err != nil {
				t.Fatalf("live head lost by auto-GC: %v", err)
			}
		})
	}
}
