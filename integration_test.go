package forkbase_test

// End-to-end scenario tests driving the public API the way the paper's
// three applications do: multi-branch collaboration over large values,
// conflict handling, history audits, and durability of versions across
// a store reopen.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	forkbase "forkbase"

	"forkbase/internal/workload"
)

var tctx = context.Background()

// TestCollaborationScenario walks a full collaborative workflow: a
// shared document, two analysts on private branches, concurrent edits,
// a conflicting edit resolved at merge time, and a final history audit.
func TestCollaborationScenario(t *testing.T) {
	db := forkbase.Open()
	defer db.Close()
	rng := rand.New(rand.NewSource(9))
	doc := workload.RandText(rng, 100<<10)

	if _, err := db.Put(tctx, "report", forkbase.NewBlob(doc)); err != nil {
		t.Fatal(err)
	}
	for _, branch := range []string{"alice", "bob"} {
		if err := db.Fork(tctx, "report", branch); err != nil {
			t.Fatal(err)
		}
	}

	// Alice edits the head of the document, Bob the tail; disjoint
	// regions so the merge can reconcile chunk-wise... but Blob merges
	// are whole-value, so this documents the conflict path too.
	edit := func(branch string, off int, text string) {
		o, err := db.Get(tctx, "report", forkbase.WithBranch(branch))
		if err != nil {
			t.Fatal(err)
		}
		b, err := db.BlobOf(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Splice(uint64(off), uint64(len(text)), []byte(text)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Put(tctx, "report", b, forkbase.WithBranch(branch)); err != nil {
			t.Fatal(err)
		}
	}
	edit("alice", 0, "[alice wrote the intro]")
	edit("bob", 90<<10, "[bob wrote the conclusion]")

	// Both branches evolved from the same base: LCA finds it.
	ao, _ := db.Get(tctx, "report", forkbase.WithBranch("alice"))
	bo, _ := db.Get(tctx, "report", forkbase.WithBranch("bob"))
	lca, err := db.LCA(ao.UID(), bo.UID())
	if err != nil {
		t.Fatal(err)
	}
	master, _ := db.Get(tctx, "report", forkbase.WithBranch("master"))
	if lca.UID() != master.UID() {
		t.Fatal("LCA of the two branches is not the fork point")
	}

	// A whole-object conflict: both changed the blob. Resolve by
	// choosing Bob's, then verify the winner's content.
	_, conflicts, err := db.Merge(tctx, "report", "alice", forkbase.WithBranch("bob"))
	if !errors.Is(err, forkbase.ErrConflict) || len(conflicts) != 1 {
		t.Fatalf("expected 1 whole-object conflict, got %v %v", err, conflicts)
	}
	uid, _, err := db.Merge(tctx, "report", "alice", forkbase.WithBranch("bob"), forkbase.WithResolver(forkbase.ChooseB))
	if err != nil {
		t.Fatal(err)
	}
	mo, _ := db.Get(tctx, "", forkbase.WithBase(uid))
	mb, _ := db.BlobOf(mo)
	content, _ := mb.Bytes()
	if !bytes.Contains(content, []byte("[bob wrote the conclusion]")) {
		t.Fatal("merge result lost the chosen side")
	}
	if len(mo.Bases) != 2 {
		t.Fatal("merge node must derive from both heads")
	}

	// Audit: alice's branch history hash-chains back to the original.
	head, _ := db.Get(tctx, "report", forkbase.WithBranch("alice"))
	if _, err := db.VerifyHistory(head); err != nil {
		t.Fatal(err)
	}
}

// TestStructuredCollaboration does the same over a Map dataset, where
// element-wise merge reconciles disjoint key edits without conflicts.
func TestStructuredCollaboration(t *testing.T) {
	db := forkbase.Open()
	defer db.Close()
	m := forkbase.NewMap()
	for i := 0; i < 5000; i++ {
		m.Set([]byte(fmt.Sprintf("row-%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if _, err := db.Put(tctx, "dataset", m); err != nil {
		t.Fatal(err)
	}
	db.Fork(tctx, "dataset", "cleaning")
	db.Fork(tctx, "dataset", "enrichment")

	update := func(branch, key, val string) {
		o, _ := db.Get(tctx, "dataset", forkbase.WithBranch(branch))
		mm, _ := db.MapOf(o)
		if err := mm.Set([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Put(tctx, "dataset", mm, forkbase.WithBranch(branch)); err != nil {
			t.Fatal(err)
		}
	}
	update("cleaning", "row-000100", "cleaned")
	update("enrichment", "row-004000", "enriched")
	update("enrichment", "row-new-1", "added")

	// Merge both lines of work back into master without conflicts.
	if _, _, err := db.Merge(tctx, "dataset", "master", forkbase.WithBranch("cleaning")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Merge(tctx, "dataset", "master", forkbase.WithBranch("enrichment")); err != nil {
		t.Fatal(err)
	}
	o, _ := db.Get(tctx, "dataset")
	mm, _ := db.MapOf(o)
	for key, want := range map[string]string{
		"row-000100": "cleaned",
		"row-004000": "enriched",
		"row-new-1":  "added",
		"row-000000": "v0",
	} {
		v, ok, err := mm.Get([]byte(key))
		if err != nil || !ok || string(v) != want {
			t.Fatalf("master[%s] = %q ok=%v err=%v, want %q", key, v, ok, err, want)
		}
	}
	if mm.Len() != 5001 {
		t.Fatalf("master has %d rows, want 5001", mm.Len())
	}
}

// TestDurabilityAcrossReopen verifies that every version written to a
// file-backed store remains readable — and tamper-evident — after the
// process "restarts".
func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := forkbase.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	var uids []forkbase.UID
	var contents [][]byte
	data := workload.RandText(rng, 64<<10)
	for v := 0; v < 10; v++ {
		copy(data[v*1000:], fmt.Sprintf("revision-%03d", v))
		uid, err := db.Put(tctx, "doc", forkbase.NewBlob(data))
		if err != nil {
			t.Fatal(err)
		}
		uids = append(uids, uid)
		contents = append(contents, append([]byte(nil), data...))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := forkbase.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for v, uid := range uids {
		o, err := db2.Get(tctx, "", forkbase.WithBase(uid))
		if err != nil {
			t.Fatalf("version %d lost: %v", v, err)
		}
		b, err := db2.BlobOf(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, contents[v]) {
			t.Fatalf("version %d corrupt after reopen", v)
		}
	}
	// The full derivation chain survives and verifies.
	head, err := db2.Get(tctx, "", forkbase.WithBase(uids[len(uids)-1]))
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.VerifyHistory(head)
	if err != nil || n != 10 {
		t.Fatalf("history after reopen: %d %v", n, err)
	}
	// Dedup across versions carried to disk: ten 64 KB versions with
	// small deltas must occupy far less than ten full copies.
	if got := db2.Stats().Bytes; got > 5*64<<10 {
		t.Fatalf("on-disk footprint %d for 10 near-identical 64KB versions", got)
	}
}
