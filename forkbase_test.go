package forkbase

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// tctx is the context for test calls on the unified Store API.
var tctx = context.Background()

// TestPaperExample reproduces Figure 4 of the paper: fork a Blob to a
// new branch, edit it locally, commit to that branch.
func TestPaperExample(t *testing.T) {
	db := Open()
	defer db.Close()

	if _, err := db.Put(tctx, "my key", NewBlob([]byte("my value"))); err != nil {
		t.Fatal(err)
	}
	if err := db.Fork(tctx, "my key", "new branch"); err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get(tctx, "my key", WithBranch("new branch"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := db.BlobOf(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := blob.Remove(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := blob.Append([]byte(" and some more")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(tctx, "my key", blob, WithBranch("new branch")); err != nil {
		t.Fatal(err)
	}
	// The new branch sees the edit; master does not.
	check := func(branch, want string) {
		o, err := db.Get(tctx, "my key", WithBranch(branch))
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.BlobOf(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%s = %q, want %q", branch, got, want)
		}
	}
	check("new branch", "value and some more")
	check("master", "my value")
}

func TestKeyValueCompliance(t *testing.T) {
	// With only the default branch, ForkBase is a plain KV store (§3.1).
	db := Open()
	defer db.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%d", i)
		if _, err := db.Put(tctx, k, String(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		o, err := db.Get(tctx, fmt.Sprintf("key-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		v, err := db.Value(tctx, string(o.Key), o)
		if err != nil {
			t.Fatal(err)
		}
		if v.(String) != String(fmt.Sprintf("v-%d", i)) {
			t.Fatalf("key-%d = %q", i, v)
		}
	}
	keys, err := db.ListKeys(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 50 {
		t.Fatalf("keys: %d", len(keys))
	}
	if _, err := db.Get(tctx, "no-such-key"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestVersionHistoryAndTrack(t *testing.T) {
	db := Open()
	defer db.Close()
	var uids []UID
	for i := 0; i < 10; i++ {
		uid, err := db.Put(tctx, "doc", String(fmt.Sprintf("version-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, uid)
	}
	// Track distances 0..3 from head (M15).
	hist, err := db.Track(tctx, "doc", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("track returned %d versions", len(hist))
	}
	for i, o := range hist {
		want := fmt.Sprintf("version-%d", 9-i)
		if string(o.Data) != want {
			t.Fatalf("track[%d] = %q, want %q", i, o.Data, want)
		}
	}
	// Distances 2..2 from a uid (M16).
	hist, err = db.Track(tctx, "", 2, 2, WithBase(uids[5]))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || string(hist[0].Data) != "version-3" {
		t.Fatalf("TrackUID: %q", hist[0].Data)
	}
	// History is tamper-evident end to end.
	head, _ := db.Get(tctx, "doc")
	n, err := db.VerifyHistory(head)
	if err != nil || n != 10 {
		t.Fatalf("VerifyHistory: %d %v", n, err)
	}
	// Old versions stay readable by uid (M2).
	o, err := db.Get(tctx, "", WithBase(uids[0]))
	if err != nil || string(o.Data) != "version-0" {
		t.Fatalf("GetUID: %v", err)
	}
}

func TestForkOnDemandIsolation(t *testing.T) {
	db := Open()
	defer db.Close()
	db.Put(tctx, "cfg", String("v1"))
	if err := db.Fork(tctx, "cfg", "dev"); err != nil {
		t.Fatal(err)
	}
	db.Put(tctx, "cfg", String("v2-dev"), WithBranch("dev"))
	db.Put(tctx, "cfg", String("v2-master"))

	branches, err := db.ListBranches(tctx, "cfg")
	if err != nil || len(branches.Tagged) != 2 {
		t.Fatalf("branches: %v (err %v)", branches.Tagged, err)
	}
	dev, _ := db.Get(tctx, "cfg", WithBranch("dev"))
	master, _ := db.Get(tctx, "cfg")
	if string(dev.Data) != "v2-dev" || string(master.Data) != "v2-master" {
		t.Fatalf("isolation broken: %q / %q", dev.Data, master.Data)
	}
	// LCA of the two heads is the fork point (M17).
	lca, err := db.LCA(dev.UID(), master.UID())
	if err != nil {
		t.Fatal(err)
	}
	if string(lca.Data) != "v1" {
		t.Fatalf("LCA = %q", lca.Data)
	}
}

func TestForkUIDRevivesHistory(t *testing.T) {
	db := Open()
	defer db.Close()
	old, _ := db.Put(tctx, "k", String("old"))
	db.Put(tctx, "k", String("new"))
	// A historical version becomes modifiable by forking it (§3.3).
	if err := db.Fork(tctx, "k", "revival", WithBase(old)); err != nil {
		t.Fatal(err)
	}
	db.Put(tctx, "k", String("revived"), WithBranch("revival"))
	o, _ := db.Get(tctx, "k", WithBranch("revival"))
	if string(o.Data) != "revived" {
		t.Fatalf("revival = %q", o.Data)
	}
	if len(o.Bases) != 1 || o.Bases[0] != old {
		t.Fatal("revival does not derive from the old version")
	}
}

func TestBranchRenameRemove(t *testing.T) {
	db := Open()
	defer db.Close()
	db.Put(tctx, "k", String("v"))
	db.Fork(tctx, "k", "tmp")
	if err := db.RenameBranch(tctx, "k", "tmp", "kept"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(tctx, "k", WithBranch("tmp")); !errors.Is(err, ErrBranchNotFound) {
		t.Fatalf("renamed branch: %v", err)
	}
	if err := db.RemoveBranch(tctx, "k", "kept"); err != nil {
		t.Fatal(err)
	}
	if got, err := db.ListBranches(tctx, "k"); err != nil || len(got.Tagged) != 1 {
		t.Fatalf("branches after remove: %v (err %v)", got.Tagged, err)
	}
}

func TestGuardedPut(t *testing.T) {
	db := Open()
	defer db.Close()
	v1, _ := db.Put(tctx, "k", String("v1"))
	if _, err := db.Put(tctx, "k", String("v2"), WithGuard(v1)); err != nil {
		t.Fatal(err)
	}
	// The stale guard must fail and leave the head untouched.
	if _, err := db.Put(tctx, "k", String("v3"), WithGuard(v1)); !errors.Is(err, ErrGuardFailed) {
		t.Fatalf("stale guard: %v", err)
	}
	o, _ := db.Get(tctx, "k")
	if string(o.Data) != "v2" {
		t.Fatalf("head = %q", o.Data)
	}
}

func TestForkOnConflict(t *testing.T) {
	db := Open()
	defer db.Close()
	base, err := db.Put(tctx, "state", String("genesis"), WithBase(UID{}))
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent writers derive from the same base (Figure 3b).
	u1, err := db.Put(tctx, "state", String("writer-1"), WithBase(base))
	if err != nil {
		t.Fatal(err)
	}
	u2, err := db.Put(tctx, "state", String("writer-2"), WithBase(base))
	if err != nil {
		t.Fatal(err)
	}
	heads, err := db.ListBranches(tctx, "state")
	if err != nil || len(heads.Untagged) != 2 {
		t.Fatalf("untagged heads: %d, want 2 (err %v)", len(heads.Untagged), err)
	}
	// Merge the conflicting heads (M7) with choose-one resolution.
	merged, _, err := db.Merge(tctx, "state", "", WithBase(u1), WithBase(u2), WithResolver(ChooseB))
	if err != nil {
		t.Fatal(err)
	}
	heads, err = db.ListBranches(tctx, "state")
	if err != nil || len(heads.Untagged) != 1 || heads.Untagged[0] != merged {
		t.Fatalf("after merge: %v (err %v)", heads.Untagged, err)
	}
	o, _ := db.Get(tctx, "", WithBase(merged))
	if len(o.Bases) != 2 {
		t.Fatalf("merge node bases: %d", len(o.Bases))
	}
}

func TestMergeBranchesMapTypes(t *testing.T) {
	db := Open()
	defer db.Close()
	m := NewMap()
	m.Set([]byte("shared"), []byte("base"))
	db.Put(tctx, "data", m)
	db.Fork(tctx, "data", "feature")

	// master adds one key, feature adds another.
	mo, _ := db.Get(tctx, "data")
	mm, _ := db.MapOf(mo)
	mm.Set([]byte("from-master"), []byte("m"))
	db.Put(tctx, "data", mm)

	fo, _ := db.Get(tctx, "data", WithBranch("feature"))
	fm, _ := db.MapOf(fo)
	fm.Set([]byte("from-feature"), []byte("f"))
	db.Put(tctx, "data", fm, WithBranch("feature"))
	featureHead, _ := db.Get(tctx, "data", WithBranch("feature"))

	uid, conflicts, err := db.Merge(tctx, "data", "master", WithBranch("feature"))
	if err != nil {
		t.Fatalf("%v %v", err, conflicts)
	}
	o, _ := db.Get(tctx, "", WithBase(uid))
	merged, _ := db.MapOf(o)
	for _, k := range []string{"shared", "from-master", "from-feature"} {
		if _, ok, _ := merged.Get([]byte(k)); !ok {
			t.Fatalf("merged map missing %q", k)
		}
	}
	// The head of master moved to the merge result; feature unchanged.
	head, _ := db.Get(tctx, "data")
	if head.UID() != uid {
		t.Fatal("master head not updated by merge")
	}
	f2, _ := db.Get(tctx, "data", WithBranch("feature"))
	if f2.UID() != featureHead.UID() {
		t.Fatal("merge modified the reference branch")
	}
}

func TestMergeConflictSurfaced(t *testing.T) {
	db := Open()
	defer db.Close()
	db.Put(tctx, "k", String("base"))
	db.Fork(tctx, "k", "other")
	db.Put(tctx, "k", String("left"))
	db.Put(tctx, "k", String("right"), WithBranch("other"))
	_, conflicts, err := db.Merge(tctx, "k", "master", WithBranch("other"))
	if !errors.Is(err, ErrConflict) || len(conflicts) != 1 {
		t.Fatalf("conflict surfacing: %v %v", err, conflicts)
	}
	// Resolve with append.
	uid, _, err := db.Merge(tctx, "k", "master", WithBranch("other"), WithResolver(AppendResolve))
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.Get(tctx, "", WithBase(uid))
	if string(o.Data) != "leftright" {
		t.Fatalf("resolved = %q", o.Data)
	}
}

func TestDiffVersions(t *testing.T) {
	db := Open()
	defer db.Close()
	m := NewMap()
	for i := 0; i < 500; i++ {
		m.Set([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	u1, _ := db.Put(tctx, "d", m)
	o, _ := db.Get(tctx, "d")
	m2, _ := db.MapOf(o)
	m2.Set([]byte("k0100"), []byte("changed"))
	m2.Set([]byte("brand-new"), []byte("x"))
	u2, _ := db.Put(tctx, "d", m2)

	d, err := db.Diff(tctx, "", u1, u2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sorted == nil || len(d.Sorted.Added) != 1 || len(d.Sorted.Modified) != 1 {
		t.Fatalf("diff: %+v", d.Sorted)
	}
}

func TestDedupAcrossVersions(t *testing.T) {
	db := Open()
	defer db.Close()
	base := make([]byte, 256<<10)
	rng := uint64(42)
	for i := range base {
		rng = rng*6364136223846793005 + 1442695040888963407
		base[i] = byte(rng >> 56)
	}
	db.Put(tctx, "blob", NewBlob(base))
	grew := db.Stats().Bytes
	// 20 small edits: storage should grow far slower than 20 full
	// copies (naive versioning would add 21x the object size).
	for i := 0; i < 20; i++ {
		o, _ := db.Get(tctx, "blob")
		b, _ := db.BlobOf(o)
		b.Splice(uint64(i*1000), 4, []byte(fmt.Sprintf("%04d", i)))
		db.Put(tctx, "blob", b)
	}
	total := db.Stats().Bytes
	if total > grew*4 {
		t.Fatalf("20 small edits grew storage %dx (naive would be 21x)", total/grew)
	}
	// All 21 versions remain readable.
	hist, err := db.Track(tctx, "blob", 0, 20)
	if err != nil || len(hist) != 21 {
		t.Fatalf("history: %d %v", len(hist), err)
	}
}

func TestConcurrentPutsSerialized(t *testing.T) {
	db := Open()
	defer db.Close()
	db.Put(tctx, "ctr", String("start"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Put(tctx, "ctr", String(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Exactly 201 versions in a single linear history.
	hist, err := db.Track(tctx, "ctr", 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 201 {
		t.Fatalf("history length %d, want 201", len(hist))
	}
}

func TestPersistencePath(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := db.Put(tctx, "k", NewBlob([]byte("persisted value")))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// Branch tables are in-memory (as in the paper's servlet), but all
	// versions remain reachable by uid from the persistent chunk log.
	o, err := db2.Get(tctx, "", WithBase(uid))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.BlobOf(o)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := b.Bytes()
	if string(got) != "persisted value" {
		t.Fatalf("recovered %q", got)
	}
}

func TestTamperEvidenceEndToEnd(t *testing.T) {
	db := Open()
	defer db.Close()
	uid, _ := db.Put(tctx, "k", NewBlob(bytes.Repeat([]byte("secure"), 2000)))
	o, err := db.Get(tctx, "", WithBase(uid))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.BlobOf(o)
	if b.Tree() == nil {
		t.Fatal("not attached")
	}
	if err := b.Tree().Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Asking for a uid that is not a Meta chunk fails type checking.
	root := b.Tree().Root()
	if _, err := db.Get(tctx, "", WithBase(root)); err == nil {
		t.Fatal("GetUID accepted a non-meta chunk")
	}
}
