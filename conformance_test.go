package forkbase_test

// Cross-implementation conformance: every scenario below runs
// unchanged against both Store implementations — the embedded DB and
// the cluster client — through the unified client API. A behavioural
// divergence between deployment modes is a bug in whichever backend
// diverges.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	forkbase "forkbase"
)

// stores enumerates the Store implementations under test. acl, when
// non-nil, is installed into the store so ACL scenarios can exercise
// closed-mode behaviour. The "remote" entry is a RemoteStore talking
// over a real TCP loopback connection to an in-process server wrapping
// an embedded DB — every scenario below exercises the wire protocol,
// the typed-error round-trip and the request multiplexing for free.
func stores(t *testing.T, acl *forkbase.ACL) map[string]forkbase.Store {
	t.Helper()
	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 3, TwoLayer: true, ACL: acl})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]forkbase.Store{
		"embedded": forkbase.Open(forkbase.Options{ACL: acl}),
		"cluster":  cc,
		"remote":   remoteStore(t, forkbase.Open(forkbase.Options{ACL: acl})),
		// Same wire protocol, but with chunk-granular transfer active:
		// chunkable values move as POS-Tree deltas through a client-side
		// chunk cache. Every scenario — guarded-put races, ACL denials,
		// GC reclamation, typed errors — must behave identically.
		"remote+chunksync": remoteStoreChunked(t, forkbase.Open(forkbase.Options{ACL: acl})),
	}
}

// remoteStore serves backend on a loopback listener and dials it.
// Cleanup shuts the server down gracefully and closes the backend.
func remoteStore(t *testing.T, backend forkbase.Store) *forkbase.RemoteStore {
	t.Helper()
	return remoteStoreCfg(t, backend, forkbase.RemoteConfig{Conns: 2})
}

// remoteStoreChunked is remoteStore with chunk sync and an on-disk
// client chunk cache enabled.
func remoteStoreChunked(t *testing.T, backend forkbase.Store) *forkbase.RemoteStore {
	t.Helper()
	return remoteStoreCfg(t, backend, forkbase.RemoteConfig{
		Conns:           2,
		ChunkSync:       true,
		ChunkCacheDir:   t.TempDir(),
		ChunkCacheBytes: 8 << 20,
	})
}

func remoteStoreCfg(t *testing.T, backend forkbase.Store, cfg forkbase.RemoteConfig) *forkbase.RemoteStore {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := forkbase.NewServer(backend, forkbase.ServerOptions{})
	go srv.Serve(ln)
	rs, err := forkbase.Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		backend.Close()
	})
	return rs
}

// coLocated returns a key other than key that lives where key lives,
// so a uid of key's resolves when a call is routed by it: on the
// cluster a key the master routes to the same servlet, anywhere else
// (one engine) the first candidate.
func coLocated(st forkbase.Store, key string) string {
	cc, clustered := st.(*forkbase.ClusterClient)
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-elsewhere-%d", key, i)
		if !clustered || cc.Cluster().Master().Route(k) == cc.Cluster().Master().Route(key) {
			return k
		}
	}
}

func TestStoreConformance(t *testing.T) {
	ctx := context.Background()
	scenarios := []struct {
		name string
		run  func(t *testing.T, st forkbase.Store)
	}{
		{"PutGetRoundtrip", func(t *testing.T, st forkbase.Store) {
			uid, err := st.Put(ctx, "k", forkbase.String("v1"), forkbase.WithMeta("first"))
			if err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			if o.UID() != uid || string(o.Data) != "v1" || string(o.Context) != "first" {
				t.Fatalf("got %q meta %q", o.Data, o.Context)
			}
			// The same version is reachable pinned by uid (M2).
			o2, err := st.Get(ctx, "k", forkbase.WithBase(uid))
			if err != nil || o2.UID() != uid {
				t.Fatalf("get by uid: %v", err)
			}
			if _, err := st.Get(ctx, "absent"); !errors.Is(err, forkbase.ErrKeyNotFound) {
				t.Fatalf("missing key: %v", err)
			}
		}},
		{"BranchIsolation", func(t *testing.T, st forkbase.Store) {
			if _, err := st.Put(ctx, "cfg", forkbase.String("v1")); err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(ctx, "cfg", "dev"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "cfg", forkbase.String("v2-dev"), forkbase.WithBranch("dev")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "cfg", forkbase.String("v2-master")); err != nil {
				t.Fatal(err)
			}
			dev, err := st.Get(ctx, "cfg", forkbase.WithBranch("dev"))
			if err != nil {
				t.Fatal(err)
			}
			master, err := st.Get(ctx, "cfg")
			if err != nil {
				t.Fatal(err)
			}
			if string(dev.Data) != "v2-dev" || string(master.Data) != "v2-master" {
				t.Fatalf("isolation broken: %q / %q", dev.Data, master.Data)
			}
			bl, err := st.ListBranches(ctx, "cfg")
			if err != nil || len(bl.Tagged) != 2 {
				t.Fatalf("branches: %+v (%v)", bl, err)
			}
		}},
		{"ForkAtVersion", func(t *testing.T, st forkbase.Store) {
			old, err := st.Put(ctx, "k", forkbase.String("old"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "k", forkbase.String("new")); err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(ctx, "k", "revival", forkbase.WithBase(old)); err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "k", forkbase.WithBranch("revival"))
			if err != nil || o.UID() != old {
				t.Fatalf("revival head: %v", err)
			}
		}},
		{"MergeBranches", func(t *testing.T, st forkbase.Store) {
			m := forkbase.NewMap()
			m.Set([]byte("shared"), []byte("base"))
			if _, err := st.Put(ctx, "data", m); err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(ctx, "data", "feature"); err != nil {
				t.Fatal(err)
			}
			edit := func(branch, key string) {
				o, err := st.Get(ctx, "data", forkbase.WithBranch(branch))
				if err != nil {
					t.Fatal(err)
				}
				v, err := st.Value(ctx, "data", o)
				if err != nil {
					t.Fatal(err)
				}
				mm, err := forkbase.AsMap(v)
				if err != nil {
					t.Fatal(err)
				}
				mm.Set([]byte(key), []byte("x"))
				if _, err := st.Put(ctx, "data", mm, forkbase.WithBranch(branch)); err != nil {
					t.Fatal(err)
				}
			}
			edit("master", "from-master")
			edit("feature", "from-feature")
			uid, conflicts, err := st.Merge(ctx, "data", "master", forkbase.WithBranch("feature"))
			if err != nil {
				t.Fatalf("%v %v", err, conflicts)
			}
			o, err := st.Get(ctx, "data", forkbase.WithBase(uid))
			if err != nil {
				t.Fatal(err)
			}
			v, err := st.Value(ctx, "data", o)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := forkbase.AsMap(v)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"shared", "from-master", "from-feature"} {
				if _, ok, _ := merged.Get([]byte(k)); !ok {
					t.Fatalf("merged map missing %q", k)
				}
			}
		}},
		{"MergeConflictSurfaced", func(t *testing.T, st forkbase.Store) {
			if _, err := st.Put(ctx, "k", forkbase.String("base")); err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(ctx, "k", "other"); err != nil {
				t.Fatal(err)
			}
			st.Put(ctx, "k", forkbase.String("left"))
			st.Put(ctx, "k", forkbase.String("right"), forkbase.WithBranch("other"))
			_, conflicts, err := st.Merge(ctx, "k", "master", forkbase.WithBranch("other"))
			if !errors.Is(err, forkbase.ErrConflict) || len(conflicts) != 1 {
				t.Fatalf("conflict surfacing: %v %v", err, conflicts)
			}
			uid, _, err := st.Merge(ctx, "k", "master",
				forkbase.WithBranch("other"), forkbase.WithResolver(forkbase.AppendResolve))
			if err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "k", forkbase.WithBase(uid))
			if err != nil || string(o.Data) != "leftright" {
				t.Fatalf("resolved = %q (%v)", o.Data, err)
			}
		}},
		{"ForkOnConflictAndUntaggedMerge", func(t *testing.T, st forkbase.Store) {
			base, err := st.Put(ctx, "state", forkbase.Int(100), forkbase.WithBase(forkbase.UID{}))
			if err != nil {
				t.Fatal(err)
			}
			u1, err := st.Put(ctx, "state", forkbase.Int(110), forkbase.WithBase(base))
			if err != nil {
				t.Fatal(err)
			}
			u2, err := st.Put(ctx, "state", forkbase.Int(95), forkbase.WithBase(base))
			if err != nil {
				t.Fatal(err)
			}
			bl, err := st.ListBranches(ctx, "state")
			if err != nil || len(bl.Untagged) != 2 {
				t.Fatalf("untagged heads: %+v (%v)", bl.Untagged, err)
			}
			merged, _, err := st.Merge(ctx, "state", "",
				forkbase.WithBase(u1), forkbase.WithBase(u2), forkbase.WithResolver(forkbase.Aggregate))
			if err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "state", forkbase.WithBase(merged))
			if err != nil {
				t.Fatal(err)
			}
			v, err := st.Value(ctx, "state", o)
			if err != nil {
				t.Fatal(err)
			}
			if v.(forkbase.Int) != 105 {
				t.Fatalf("aggregate merge = %v, want 105", v)
			}
		}},
		{"TrackHistory", func(t *testing.T, st forkbase.Store) {
			var uids []forkbase.UID
			for i := 0; i < 6; i++ {
				uid, err := st.Put(ctx, "doc", forkbase.String(fmt.Sprintf("v%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				uids = append(uids, uid)
			}
			hist, err := st.Track(ctx, "doc", 0, 2)
			if err != nil || len(hist) != 3 || string(hist[0].Data) != "v5" {
				t.Fatalf("track: %d %v", len(hist), err)
			}
			hist, err = st.Track(ctx, "doc", 1, 1, forkbase.WithBase(uids[3]))
			if err != nil || len(hist) != 1 || string(hist[0].Data) != "v2" {
				t.Fatalf("track by uid: %v", err)
			}
		}},
		{"GuardedPutRace", func(t *testing.T, st forkbase.Store) {
			head, err := st.Put(ctx, "ctr", forkbase.String("start"))
			if err != nil {
				t.Fatal(err)
			}
			// Two writers race a guarded Put against the same observed
			// head: exactly one must win, the other must see
			// ErrGuardFailed — on every backend.
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = st.Put(ctx, "ctr",
						forkbase.String(fmt.Sprintf("writer-%d", i)), forkbase.WithGuard(head))
				}(i)
			}
			wg.Wait()
			wins, losses := 0, 0
			for _, err := range errs {
				switch {
				case err == nil:
					wins++
				case errors.Is(err, forkbase.ErrGuardFailed):
					losses++
				default:
					t.Fatalf("unexpected race outcome: %v", err)
				}
			}
			if wins != 1 || losses != 1 {
				t.Fatalf("guarded race: %d wins, %d guard failures", wins, losses)
			}
		}},
		{"BatchApply", func(t *testing.T, st forkbase.Store) {
			b := forkbase.NewBatch()
			for i := 0; i < 5; i++ {
				b.Put("log", forkbase.String(fmt.Sprintf("entry-%d", i)))
			}
			b.Put("other", forkbase.String("x"), forkbase.WithBranch("side"))
			uids, err := st.Apply(ctx, b)
			if err != nil || len(uids) != 6 {
				t.Fatalf("apply: %d %v", len(uids), err)
			}
			// Writes to the same key+branch chained: history is linear.
			hist, err := st.Track(ctx, "log", 0, 9)
			if err != nil || len(hist) != 5 {
				t.Fatalf("batched history: %d %v", len(hist), err)
			}
			if string(hist[0].Data) != "entry-4" || hist[0].UID() != uids[4] {
				t.Fatalf("batch head = %q", hist[0].Data)
			}
			o, err := st.Get(ctx, "other", forkbase.WithBranch("side"))
			if err != nil || o.UID() != uids[5] {
				t.Fatalf("cross-key batch write: %v", err)
			}
			// A failing guard aborts the whole key group atomically.
			bad := forkbase.NewBatch().
				Put("log", forkbase.String("pre-fail")).
				Put("log", forkbase.String("guarded"), forkbase.WithGuard(forkbase.UID{}))
			if _, err := st.Apply(ctx, bad); !errors.Is(err, forkbase.ErrGuardFailed) {
				t.Fatalf("bad batch: %v", err)
			}
			head, err := st.Get(ctx, "log")
			if err != nil || head.UID() != uids[4] {
				t.Fatal("failed batch leaked a head update")
			}
		}},
		{"GuardOnMissingBranch", func(t *testing.T, st forkbase.Store) {
			// A guard against a branch that does not exist is a
			// different failure than losing a guard race: the caller
			// holding a uid it once read needs to distinguish "branch
			// gone" (give up, or re-create) from "head moved" (re-read
			// and retry). Every backend must report ErrBranchNotFound
			// for the former, on a missing key and a missing branch
			// alike, and for single and batched writes alike.
			head, err := st.Put(ctx, "guarded", forkbase.String("v"))
			if err != nil {
				t.Fatal(err)
			}
			_, err = st.Put(ctx, "neverwritten", forkbase.String("x"), forkbase.WithGuard(head))
			if !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("guard on missing key: %v, want ErrBranchNotFound", err)
			}
			_, err = st.Put(ctx, "guarded", forkbase.String("x"),
				forkbase.WithBranch("nobranch"), forkbase.WithGuard(head))
			if !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("guard on missing branch: %v, want ErrBranchNotFound", err)
			}
			// The race case still reports ErrGuardFailed.
			if _, err := st.Put(ctx, "guarded", forkbase.String("v2")); err != nil {
				t.Fatal(err)
			}
			_, err = st.Put(ctx, "guarded", forkbase.String("x"), forkbase.WithGuard(forkbase.UID{1}))
			if !errors.Is(err, forkbase.ErrGuardFailed) {
				t.Fatalf("stale guard: %v, want ErrGuardFailed", err)
			}
			// Batched writes draw the same distinction.
			b := forkbase.NewBatch().
				Put("guarded", forkbase.String("x"), forkbase.WithBranch("nobranch"), forkbase.WithGuard(head))
			if _, err := st.Apply(ctx, b); !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("batched guard on missing branch: %v, want ErrBranchNotFound", err)
			}
			b = forkbase.NewBatch().
				Put("neverwritten", forkbase.String("x"), forkbase.WithGuard(head))
			if _, err := st.Apply(ctx, b); !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("batched guard on missing key: %v, want ErrBranchNotFound", err)
			}
			// A merge into a branch of a missing key fails the same way.
			if _, _, err := st.Merge(ctx, "neverwritten", "master", forkbase.WithBase(head)); !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("merge into missing key: %v, want ErrBranchNotFound", err)
			}
			// None of the failed writes leaves the missing key behind.
			keys, err := st.ListKeys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 1 || keys[0] != "guarded" {
				t.Fatalf("keys after failed writes: %v, want [guarded]", keys)
			}
		}},
		{"RenameRemoveBranch", func(t *testing.T, st forkbase.Store) {
			st.Put(ctx, "k", forkbase.String("v"))
			if err := st.Fork(ctx, "k", "tmp"); err != nil {
				t.Fatal(err)
			}
			if err := st.RenameBranch(ctx, "k", "tmp", "kept"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "k", forkbase.WithBranch("tmp")); !errors.Is(err, forkbase.ErrBranchNotFound) {
				t.Fatalf("renamed branch: %v", err)
			}
			if err := st.RemoveBranch(ctx, "k", "kept"); err != nil {
				t.Fatal(err)
			}
			bl, _ := st.ListBranches(ctx, "k")
			if len(bl.Tagged) != 1 {
				t.Fatalf("branches after remove: %+v", bl.Tagged)
			}
		}},
		{"DiffVersions", func(t *testing.T, st forkbase.Store) {
			m := forkbase.NewMap()
			for i := 0; i < 300; i++ {
				m.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
			}
			u1, err := st.Put(ctx, "d", m)
			if err != nil {
				t.Fatal(err)
			}
			o, _ := st.Get(ctx, "d")
			v, err := st.Value(ctx, "d", o)
			if err != nil {
				t.Fatal(err)
			}
			m2, _ := forkbase.AsMap(v)
			m2.Set([]byte("k0100"), []byte("changed"))
			u2, err := st.Put(ctx, "d", m2)
			if err != nil {
				t.Fatal(err)
			}
			d, err := st.Diff(ctx, "d", u1, u2)
			if err != nil || d.Sorted == nil || len(d.Sorted.Modified) != 1 {
				t.Fatalf("diff: %+v %v", d, err)
			}
		}},
		{"ListKeys", func(t *testing.T, st forkbase.Store) {
			want := []string{"a", "b", "c"}
			for _, k := range want {
				if _, err := st.Put(ctx, k, forkbase.String("v")); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := st.ListKeys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want) {
				t.Fatalf("keys = %v", keys)
			}
			for i, k := range want {
				if keys[i] != k {
					t.Fatalf("keys = %v, want sorted %v", keys, want)
				}
			}
		}},
		{"LargeBlobRoundtrip", func(t *testing.T, st forkbase.Store) {
			data := bytes.Repeat([]byte("forkbase!"), 4096) // ~36 KB, multi-chunk
			if _, err := st.Put(ctx, "blob", forkbase.NewBlob(data)); err != nil {
				t.Fatal(err)
			}
			o, err := st.Get(ctx, "blob")
			if err != nil {
				t.Fatal(err)
			}
			v, err := st.Value(ctx, "blob", o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := forkbase.AsBlob(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Bytes()
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("blob roundtrip: %d bytes, err %v", len(got), err)
			}
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for name, st := range stores(t, nil) {
				t.Run(name, func(t *testing.T) {
					defer st.Close()
					sc.run(t, st)
				})
			}
		})
	}
}

// TestStoreConformanceACL verifies that access-control behaviour is
// identical across implementations: denials surface as ErrAccessDenied
// on both the embedded DB and the ClusterClient, and granted users
// proceed.
func TestStoreConformanceACL(t *testing.T) {
	ctx := context.Background()
	newACL := func() *forkbase.ACL {
		acl := forkbase.NewACL(false)
		acl.Grant("admin", "", "", forkbase.PermAdmin)
		acl.Grant("writer", "doc", "", forkbase.PermWrite)
		acl.Grant("reader", "doc", "", forkbase.PermRead)
		return acl
	}
	for name, st := range stores(t, newACL()) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			// Anonymous and unknown users are denied outright.
			if _, err := st.Put(ctx, "doc", forkbase.String("v")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("anonymous write: %v", err)
			}
			if _, err := st.Put(ctx, "doc", forkbase.String("v"), forkbase.WithUser("stranger")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("stranger write: %v", err)
			}
			// A reader can read but not write; a writer can do both.
			first, err := st.Put(ctx, "doc", forkbase.String("v1"), forkbase.WithUser("writer"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "doc", forkbase.WithUser("reader")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "doc", forkbase.String("v2"), forkbase.WithUser("reader")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("reader write: %v", err)
			}
			// Permissions are per key: the writer holds nothing on
			// other keys.
			if _, err := st.Put(ctx, "other", forkbase.String("v"), forkbase.WithUser("writer")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("writer on other key: %v", err)
			}
			// Batches are checked per entry before any write lands.
			b := forkbase.NewBatch().
				Put("doc", forkbase.String("ok")).
				Put("other", forkbase.String("denied"))
			if _, err := st.Apply(ctx, b, forkbase.WithUser("writer")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("batch with denied entry: %v", err)
			}
			// Branch admin needs PermAdmin, write is not enough.
			if err := st.Fork(ctx, "doc", "dev", forkbase.WithUser("writer")); err != nil {
				t.Fatal(err)
			}
			if err := st.RemoveBranch(ctx, "doc", "dev", forkbase.WithUser("writer")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("writer removed a branch: %v", err)
			}
			if err := st.RemoveBranch(ctx, "doc", "dev", forkbase.WithUser("admin")); err != nil {
				t.Fatal(err)
			}
			// A version uid is not a capability: reads and derivations
			// pinned by WithBase are checked against the key the
			// version belongs to, not the caller-supplied routing key.
			secret, err := st.Put(ctx, "doc", forkbase.String("classified"), forkbase.WithUser("writer"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get(ctx, "other", forkbase.WithUser("stranger"), forkbase.WithBase(secret)); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("uid used as read capability: %v", err)
			}
			if _, err := st.Track(ctx, "other", 0, 5, forkbase.WithUser("stranger"), forkbase.WithBase(secret)); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("uid used as track capability: %v", err)
			}
			// The other half of the same rule: when a uid names the
			// version, the routing key carries no grant requirement. The
			// reader holds read on "doc" and nothing on the key the call
			// is routed by, and reads doc's versions all the same.
			via := coLocated(st, "doc")
			if o, err := st.Get(ctx, via, forkbase.WithUser("reader"), forkbase.WithBase(secret)); err != nil || o.UID() != secret {
				t.Fatalf("read of doc's version routed by %q: %v", via, err)
			}
			if hist, err := st.Track(ctx, via, 0, 5, forkbase.WithUser("reader"), forkbase.WithBase(secret)); err != nil || len(hist) != 2 {
				t.Fatalf("track of doc's version routed by %q: %d versions, %v", via, len(hist), err)
			}
			if _, err := st.Diff(ctx, via, first, secret, forkbase.WithUser("reader")); err != nil {
				t.Fatalf("diff of doc's versions routed by %q: %v", via, err)
			}
			if _, err := st.Diff(ctx, via, first, secret, forkbase.WithUser("stranger")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("uids used as diff capability: %v", err)
			}
			// Nor can a writer on another key pull the content across
			// via a derived put. The embedded store denies through the
			// ACL; the cluster may deny earlier because the foreign
			// version is not reachable from the owning servlet at all
			// — either way the derivation must fail.
			acl2 := newACL()
			acl2.Grant("outsider", "mine", "", forkbase.PermWrite)
			st2s := stores(t, acl2)
			for n2, st2 := range st2s {
				s, err := st2.Put(ctx, "doc", forkbase.String("classified"), forkbase.WithUser("writer"))
				if err != nil {
					t.Fatal(err)
				}
				_, err = st2.Put(ctx, "mine", forkbase.String("x"), forkbase.WithUser("outsider"), forkbase.WithBase(s))
				if err == nil {
					t.Fatalf("%s: cross-key derived put succeeded", n2)
				}
				if n2 == "embedded" && !errors.Is(err, forkbase.ErrAccessDenied) {
					t.Fatalf("%s: cross-key derived put: %v", n2, err)
				}
				st2.Close()
			}
			// ListKeys needs global read, which only admin holds.
			if _, err := st.ListKeys(ctx, forkbase.WithUser("reader")); !errors.Is(err, forkbase.ErrAccessDenied) {
				t.Fatalf("reader listed the key space: %v", err)
			}
			if _, err := st.ListKeys(ctx, forkbase.WithUser("admin")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreContextCancellation verifies that an already-cancelled
// context aborts every call on every backend, and that the cancelled
// writes leave the branch table as it was.
func TestStoreContextCancellation(t *testing.T) {
	for name, st := range stores(t, nil) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			live := context.Background()
			uid, err := st.Put(live, "k", forkbase.String("v"))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(live, "k", "dev"); err != nil {
				t.Fatal(err)
			}
			obj, err := st.Get(live, "k")
			if err != nil {
				t.Fatal(err)
			}
			before, err := st.ListBranches(live, "k")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(live)
			cancel()
			calls := []struct {
				name string
				call func() error
			}{
				{"get", func() error { _, err := st.Get(ctx, "k"); return err }},
				{"put", func() error { _, err := st.Put(ctx, "k", forkbase.String("v2")); return err }},
				{"batch", func() error {
					_, err := st.Apply(ctx, forkbase.NewBatch().Put("k", forkbase.String("v3")))
					return err
				}},
				{"fork", func() error { return st.Fork(ctx, "k", "nb") }},
				{"list keys", func() error { _, err := st.ListKeys(ctx); return err }},
				{"list branches", func() error { _, err := st.ListBranches(ctx, "k"); return err }},
				{"rename branch", func() error { return st.RenameBranch(ctx, "k", "dev", "renamed") }},
				{"remove branch", func() error { return st.RemoveBranch(ctx, "k", "dev") }},
				{"pin", func() error { return st.Pin(ctx, "k", uid) }},
				{"unpin", func() error { return st.Unpin(ctx, "k", uid) }},
				{"gc", func() error { _, err := st.GC(ctx); return err }},
				{"value", func() error { _, err := st.Value(ctx, "k", obj); return err }},
			}
			for _, c := range calls {
				if err := c.call(); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled %s: %v", c.name, err)
				}
			}
			after, err := st.ListBranches(live, "k")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("cancelled writes changed the branch table:\n got %+v\nwant %+v", after, before)
			}
		})
	}
}

// TestStoreContextCancellationDeepHistory verifies that the
// history-walking calls — Track over a deep chain, Merge (whose LCA
// search walks both histories), Diff — refuse a pre-cancelled context
// on every backend. The engine additionally observes ctx at every
// step of these walks, which is what the remote client's
// cancel-on-disconnect relies on to stop a server-side walk mid-way.
func TestStoreContextCancellationDeepHistory(t *testing.T) {
	for name, st := range stores(t, nil) {
		t.Run(name, func(t *testing.T) {
			defer st.Close()
			ctx := context.Background()
			// A deep linear history plus a branch forked at its root:
			// the worst case for both Track and the LCA search.
			b := forkbase.NewBatch()
			for i := 0; i < 200; i++ {
				b.Put("deep", forkbase.String(fmt.Sprintf("v%d", i)))
			}
			uids, err := st.Apply(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Fork(ctx, "deep", "old", forkbase.WithBase(uids[0])); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Put(ctx, "deep", forkbase.String("side"), forkbase.WithBranch("old")); err != nil {
				t.Fatal(err)
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := st.Track(cancelled, "deep", 0, 500); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled deep track: %v", err)
			}
			if _, _, err := st.Merge(cancelled, "deep", "master",
				forkbase.WithBranch("old"), forkbase.WithResolver(forkbase.ChooseB)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled deep merge: %v", err)
			}
			if _, err := st.Diff(cancelled, "deep", uids[0], uids[len(uids)-1]); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled diff: %v", err)
			}
			// The store still serves once the pressure is off.
			if _, err := st.Get(ctx, "deep"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
