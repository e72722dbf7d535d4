package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/types"
)

// treeIDs lists the nodes of an attached chunkable value's tree.
func treeIDs(t *testing.T, v types.Value) map[chunk.ID]bool {
	t.Helper()
	out := map[chunk.ID]bool{}
	if err := types.TreeOf(v).Walk(func(id chunk.ID, _ int) (bool, error) {
		out[id] = true
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGCSeesAChunkedPutThatOverlapsItsRoots parks a collection inside
// Roots, after the stripe barrier and between its two reads, and lands
// a chunked put there: the put's tree was uploaded (and shielded)
// before the collection began, and the put publishes its head, then
// drops its shields. Whichever read comes first, the collection must
// see the put through the other one; read heads first and shields
// second, it sees neither, and the sweep takes the uploaded delta out
// from under a committed head.
func TestGCSeesAChunkedPutThatOverlapsItsRoots(t *testing.T) {
	ctx := context.Background()
	e := newEngine()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	key := []byte("doc")
	if _, err := e.Put(key, "master", types.NewBlob(data), nil); err != nil {
		t.Fatal(err)
	}
	o, err := e.Get(key, "master")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Value(o)
	if err != nil {
		t.Fatal(err)
	}
	old := treeIDs(t, v)
	b := v.(*types.Blob)

	// The upload: the edited tree's chunks reach the store, and the new
	// ones are shielded, before the collection opens its window.
	ins := bytes.Repeat([]byte{0xab}, 128)
	if err := b.Splice(40_000, 128, ins); err != nil {
		t.Fatal(err)
	}
	var delta []chunk.ID
	for id := range treeIDs(t, b) {
		if !old[id] {
			delta = append(delta, id)
		}
	}
	if len(delta) == 0 {
		t.Fatal("the edit made no new chunks")
	}
	e.ShieldUIDs(delta)

	// The commit, while the collection is parked between its reads.
	var committed types.UID
	e.rootsHook = func() {
		e.rootsHook = nil
		if committed, err = e.Put(key, "master", b, nil); err != nil {
			t.Error(err)
		}
		e.UnshieldUIDs(delta)
	}
	if _, err := e.GC(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if committed.IsNil() {
		t.Fatal("the collection never reached the point between its reads")
	}
	for _, id := range delta {
		if !e.Store().Has(id) {
			t.Fatalf("the sweep took %s, a node of the head the put committed", id.Short())
		}
	}
	head, err := e.Get(key, "master")
	if err != nil || head.UID() != committed {
		t.Fatalf("head after the collection: %v", err)
	}
	hv, err := e.Value(head)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hv.(*types.Blob).Bytes()
	if err != nil {
		t.Fatalf("the committed value no longer reads: %v", err)
	}
	want := append(append(append([]byte{}, data[:40_000]...), ins...), data[40_128:]...)
	if !bytes.Equal(got, want) {
		t.Fatal("the committed value reads back wrong")
	}
}

// TestRootsAllocs: Roots walks the branch tables in place, so a store
// of 10 000 single-branch keys costs a few allocations for the root
// slice, not one or more per key; and the roots are every head — the
// tagged ones of every key, a fork's and an untagged one included.
func TestRootsAllocs(t *testing.T) {
	e := newEngine()
	want := map[types.UID]bool{}
	for i := 0; i < 10_000; i++ {
		uid, err := e.Put([]byte(fmt.Sprintf("key-%05d", i)), "master", types.String(fmt.Sprint(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[uid] = true
	}
	if err := e.Fork([]byte("key-00000"), "master", "dev"); err != nil {
		t.Fatal(err)
	}
	dev, err := e.Put([]byte("key-00000"), "dev", types.String("dev"), nil)
	if err != nil {
		t.Fatal(err)
	}
	untagged, err := e.PutBase([]byte("key-00001"), types.UID{}, types.String("loose"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want[dev], want[untagged] = true, true
	roots := e.Roots()
	got := map[types.UID]bool{}
	for _, uid := range roots {
		got[uid] = true
	}
	if len(roots) != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Roots returned %d uids (%d distinct), want the %d heads", len(roots), len(got), len(want))
	}
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(5, func() { e.Roots() }); allocs > 32 {
		t.Fatalf("Roots over 10 000 keys: %.0f allocs, want at most 32", allocs)
	}
}
