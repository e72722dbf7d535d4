package forkbase_test

// A chunked Put costs the delta on both ends: what the client asks
// about, what the server reads to verify the commit, which nodes that
// verification may skip and which it may not, and the shields that
// keep both honest against a concurrent collection.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// countingStore is a server chunk store that counts the reads (Get and
// Has) it serves and lets a test see, or fail, each Put.
type countingStore struct {
	*store.MemStore
	reads atomic.Int64
	onPut func(c *chunk.Chunk) error // set before the server starts
}

func (s *countingStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.reads.Add(1)
	return s.MemStore.Get(id)
}

func (s *countingStore) Has(id chunk.ID) bool {
	s.reads.Add(1)
	return s.MemStore.Has(id)
}

func (s *countingStore) Put(c *chunk.Chunk) (bool, error) {
	if s.onPut != nil {
		if err := s.onPut(c); err != nil {
			return false, err
		}
	}
	return s.MemStore.Put(c)
}

// versionTree attaches the POS-tree of a chunkable version in s.
func versionTree(t *testing.T, s store.Store, o *forkbase.FObject) *postree.Tree {
	t.Helper()
	kind, ok := types.KindOfType(o.VType)
	if !ok {
		t.Fatalf("version of type %v has no tree", o.VType)
	}
	root, count, height, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	return postree.Attach(s, postree.DefaultConfig(), kind, root, count, height)
}

// treeChunks returns a tree's nodes by id.
func treeChunks(t *testing.T, tr *postree.Tree) map[chunk.ID]*chunk.Chunk {
	t.Helper()
	out := map[chunk.ID]*chunk.Chunk{}
	if err := tr.Walk(func(id chunk.ID, _ int) (bool, error) {
		c, err := tr.Store().Get(id)
		out[id] = c
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func serverCounter(t *testing.T, srv *forkbase.Server, name, tags string) int64 {
	t.Helper()
	s, ok := sampleValue(srv.MetricsSnapshot(), name, tags)
	if !ok {
		t.Fatalf("server has no metric %s{%s}", name, tags)
	}
	return s.Value
}

func clientCalls(rc *forkbase.RemoteStore, op string) int64 {
	s, _ := sampleValue(rc.MetricsSnapshot(), "forkbase_client_requests_total", `op="`+op+`"`)
	return s.Value
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestChunkSyncPutCostsTheDelta: after one small edit of a fetched
// value, the put asks nothing (no Have), its one Send carries exactly
// the nodes the edit created and leaves in the same socket write as the
// commit, and the server reads, all told, a few chunks per new node and
// per level — for a 256 KiB page, a 4 MiB blob of height 3 and a
// 10 000-entry Map alike.
func TestChunkSyncPutCostsTheDelta(t *testing.T) {
	ctx := context.Background()
	bigMap := func() forkbase.Value {
		m := forkbase.NewMap()
		val := randBytes(9, 10_000*40)
		for i := 0; i < 10_000; i++ {
			if err := m.Set([]byte(fmt.Sprintf("row%08d", i)), val[i*40:(i+1)*40]); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	splice := func(off uint64) func(forkbase.Value) error {
		return func(v forkbase.Value) error {
			b, err := forkbase.AsBlob(v)
			if err != nil {
				return err
			}
			return b.Splice(off, 128, randBytes(int64(off), 128))
		}
	}
	cases := []struct {
		name      string
		seed      forkbase.Value
		edit      func(forkbase.Value) error
		minHeight int
	}{
		{"Blob256KiB", forkbase.NewBlob(randBytes(1, 256<<10)), splice(100_001), 2},
		{"Blob4MiB", forkbase.NewBlob(randBytes(2, 4<<20)), splice(3_000_001), 3},
		{"Map10000", bigMap(), func(v forkbase.Value) error {
			m, err := forkbase.AsMap(v)
			if err != nil {
				return err
			}
			return m.Set([]byte("row00006180"), []byte("a value of another length"))
		}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := &countingStore{MemStore: store.NewMemStore()}
			db := forkbase.NewDBOn(cs, postree.DefaultConfig())
			addr, srv := startServer(t, db, forkbase.ServerOptions{})
			rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			if _, err := db.Put(ctx, "k", tc.seed); err != nil {
				t.Fatal(err)
			}
			o, err := rc.Get(ctx, "k")
			if err != nil {
				t.Fatal(err)
			}
			before := treeChunks(t, versionTree(t, cs.MemStore, o))
			v, err := rc.Value(ctx, "k", o)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.edit(v); err != nil {
				t.Fatal(err)
			}

			const csBytes = "forkbase_server_chunksync_bytes_total"
			have, send := serverCounter(t, srv, csBytes, `op="have"`), serverCounter(t, srv, csBytes, `op="send"`)
			calls := map[string]int64{}
			for _, op := range []string{"chunk_have", "chunk_send", "put_chunked"} {
				calls[op] = clientCalls(rc, op)
			}
			writes := rc.RecordSocketWritesForTest()
			cs.reads.Store(0)
			uid, err := rc.Put(ctx, "k", v)
			if err != nil {
				t.Fatal(err)
			}
			reads := cs.reads.Load()
			if w := writes.Take(); len(w) != 1 || fmt.Sprint(w[0]) != fmt.Sprint([]uint8{wire.OpChunkSend, wire.OpPutChunked}) {
				t.Fatalf("the put's socket writes carried ops %v; want one write of the Send (%d) and the commit (%d)",
					w, wire.OpChunkSend, wire.OpPutChunked)
			}

			head, err := db.Get(ctx, "k")
			if err != nil || head.UID() != uid {
				t.Fatalf("server head after the put: %v (uid match %v)", err, head != nil && head.UID() == uid)
			}
			tree := versionTree(t, cs.MemStore, head)
			if err := tree.Verify(); err != nil {
				t.Fatalf("committed tree: %v", err)
			}
			if tree.Height() < tc.minHeight {
				t.Fatalf("height %d; the case is about a tree of at least %d levels", tree.Height(), tc.minHeight)
			}
			after := treeChunks(t, tree)
			fresh, freshBytes := 0, int64(0)
			for id, c := range after {
				if before[id] == nil {
					fresh++
					freshBytes += int64(c.Size())
				}
			}
			if fresh == 0 || fresh > 3*tree.Height() {
				t.Fatalf("the edit made %d new nodes in a tree of height %d", fresh, tree.Height())
			}
			if got := serverCounter(t, srv, csBytes, `op="have"`) - have; got != 0 {
				t.Fatalf("the put asked about %d ids; an edit's own nodes go unasked", got/chunk.IDSize)
			}
			if got := serverCounter(t, srv, csBytes, `op="send"`) - send; got != freshBytes {
				t.Fatalf("the Send admitted %d bytes; the %d new nodes are %d", got, fresh, freshBytes)
			}
			want := map[string]int64{"chunk_have": 0, "chunk_send": 1, "put_chunked": 1}
			for op, was := range calls {
				if got := clientCalls(rc, op) - was; got != want[op] {
					t.Fatalf("the put made %d %s calls; want %d", got, op, want[op])
				}
			}
			// The commit derives the shape (height reads), loads the
			// head twice (reference, put), checks each new node and
			// opens at most as many reference nodes plus the height.
			if max := int64(2*fresh + 2*tree.Height() + 2); reads > max || reads >= int64(len(after)) {
				t.Fatalf("the put cost the server %d chunk reads for %d new nodes of %d (height %d); want at most %d",
					reads, fresh, len(after), tree.Height(), max)
			}
			if n := srv.ConnShieldsForTest(); n != 0 {
				t.Fatalf("%d shields left after the commit", n)
			}
			t.Logf("%d nodes, height %d: %d new, %d server reads", len(after), tree.Height(), fresh, reads)
		})
	}
}

// TestChunkSyncFreshValueAsksBeforeSending: a value built on the client
// takes nothing for granted, so its put keeps the Have — content the
// server already holds, here under another key, crosses as ids and
// not as bytes.
func TestChunkSyncFreshValueAsksBeforeSending(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data := randBytes(81, 300<<10)
	if _, err := db.Put(ctx, "original", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	v := forkbase.NewBlob(data)
	const csBytes = "forkbase_server_chunksync_bytes_total"
	have, send := serverCounter(t, srv, csBytes, `op="have"`), serverCounter(t, srv, csBytes, `op="send"`)
	calls := map[string]int64{}
	for _, op := range []string{"chunk_have", "chunk_send", "put_chunked"} {
		calls[op] = clientCalls(rc, op)
	}
	uid, err := rc.Put(ctx, "copy", v)
	if err != nil {
		t.Fatal(err)
	}
	nodes := len(treeChunks(t, types.TreeOf(v)))
	if got := serverCounter(t, srv, csBytes, `op="have"`) - have; got != int64(nodes*chunk.IDSize) {
		t.Fatalf("the Have listed %d ids; the value has %d nodes", got/chunk.IDSize, nodes)
	}
	if got := serverCounter(t, srv, csBytes, `op="send"`) - send; got != 0 {
		t.Fatalf("the put sent %d bytes the server already held", got)
	}
	want := map[string]int64{"chunk_have": 1, "chunk_send": 0, "put_chunked": 1}
	for op, was := range calls {
		if got := clientCalls(rc, op) - was; got != want[op] {
			t.Fatalf("the put made %d %s calls; want %d", got, op, want[op])
		}
	}
	head, err := db.Get(ctx, "copy")
	if err != nil || head.UID() != uid {
		t.Fatalf("server head after the put: %v", err)
	}
	if n := rc.StagedChunksForTest(); n != 0 {
		t.Fatalf("%d chunks staged after the put", n)
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d shields left after the commit", n)
	}
}

// scratchTree builds v's tree in s and returns it.
func scratchTree(t *testing.T, s store.Store, v forkbase.Value) *postree.Tree {
	t.Helper()
	if err := types.Persist(s, postree.DefaultConfig(), v); err != nil {
		t.Fatal(err)
	}
	return types.TreeOf(v)
}

// sendRaw uploads the given chunks under key and fails the test if the
// server refuses them.
func sendRaw(t *testing.T, c net.Conn, key string, chunks ...*chunk.Chunk) {
	t.Helper()
	if len(chunks) == 0 {
		return
	}
	if _, ep := chunkReq(t, c, wire.OpChunkSend, func(e *wire.Enc) {
		e.Str(key)
		wire.EncodeChunkUpload(e, chunks)
	}); ep != nil {
		t.Fatalf("send under %q: %v", key, ep.Err)
	}
}

// haveRaw asks which of ids the server holds (and shields the ones it
// does, under key).
func haveRaw(t *testing.T, c net.Conn, key string, ids []chunk.ID) []bool {
	t.Helper()
	d, ep := chunkReq(t, c, wire.OpChunkHave, func(e *wire.Enc) {
		e.Str(key)
		wire.EncodeUIDs(e, ids)
	})
	if ep != nil {
		t.Fatalf("have under %q: %v", key, ep.Err)
	}
	bits := wire.DecodeBitmap(d, len(ids))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return bits
}

// commitRaw sends the OpPutChunked of a tree.
func commitRaw(t *testing.T, c net.Conn, co wire.CallOptions, key string, tr *postree.Tree, vt types.Type) (forkbase.UID, error) {
	t.Helper()
	d, ep := chunkReqOpts(t, c, wire.OpPutChunked, co, func(e *wire.Enc) {
		e.Str(key)
		e.U8(uint8(vt))
		e.UID(tr.Root())
	})
	if ep != nil {
		return forkbase.UID{}, ep.Err
	}
	uid := d.UID()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return uid, nil
}

// splitLevels separates a tree's index nodes from its leaves.
func splitLevels(t *testing.T, tr *postree.Tree) (index, leaves []*chunk.Chunk) {
	t.Helper()
	if err := tr.Walk(func(id chunk.ID, level int) (bool, error) {
		c, err := tr.Store().Get(id)
		if level == 1 {
			leaves = append(leaves, c)
		} else {
			index = append(index, c)
		}
		return true, err
	}); err != nil {
		t.Fatal(err)
	}
	return index, leaves
}

// TestPutChunkedPrunesOnlyAtTheReference drives the commit with
// uploads a well-behaved client never makes. The verification may skip
// a node only because the version the put derives from has it — never
// because the store holds a chunk of that id: an index chunk whose
// children never arrived is present and proves nothing.
func TestPutChunkedPrunesOnlyAtTheReference(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	c := rawChunkConn(t, addr)
	scratch := store.NewMemStore()
	blobTree := func(seed int64) *postree.Tree {
		tr := scratchTree(t, scratch, forkbase.NewBlob(randBytes(seed, 300<<10)))
		if tr.Height() < 2 {
			t.Fatalf("height %d; the test needs index nodes", tr.Height())
		}
		return tr
	}
	// orphaned uploads the index nodes of a fresh tree and its first
	// leaf — the path the server reads to derive the tree's shape — and
	// returns the tree and the leaves held back.
	orphaned := func(key string, seed int64) (*postree.Tree, []*chunk.Chunk) {
		tr := blobTree(seed)
		index, leaves := splitLevels(t, tr)
		sendRaw(t, c, key, append(index, leaves[0])...)
		return tr, leaves[1:]
	}
	mustRefuse := func(what string, uid forkbase.UID, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: the server committed %s, a tree with chunks missing", what, uid.Short())
		}
		if !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("%s: %v; want an error wrapping store.ErrNotFound, so the client knows to renegotiate", what, err)
		}
	}
	noShields := func(what string) {
		t.Helper()
		if n := srv.ConnShieldsForTest(); n != 0 {
			t.Fatalf("%s: %d shields left on the connection", what, n)
		}
	}
	committed := func(what, key string, uid forkbase.UID, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		o, err := db.Get(ctx, key, forkbase.WithBase(uid))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		b, err := db.BlobOf(o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Bytes(); err != nil {
			t.Fatalf("%s: the committed value does not read: %v", what, err)
		}
		noShields(what)
	}

	t.Run("NewKey", func(t *testing.T) {
		tr, leaves := orphaned("fresh", 1)
		uid, err := commitRaw(t, c, wire.CallOptions{}, "fresh", tr, types.TypeBlob)
		mustRefuse("no reference, leaves missing", uid, err)
		sendRaw(t, c, "fresh", leaves...)
		uid, err = commitRaw(t, c, wire.CallOptions{}, "fresh", tr, types.TypeBlob)
		committed("no reference, complete", "fresh", uid, err)
	})

	t.Run("HeadOfTheSameType", func(t *testing.T) {
		base := forkbase.NewBlob(randBytes(2, 300<<10))
		if _, err := db.Put(ctx, "doc", base); err != nil {
			t.Fatal(err)
		}
		// An unrelated tree whose index nodes are in the store.
		tr, leaves := orphaned("doc", 3)
		uid, err := commitRaw(t, c, wire.CallOptions{}, "doc", tr, types.TypeBlob)
		mustRefuse("index nodes present, not the reference's", uid, err)
		_ = leaves

		// An edit of the head: everything it shares with the head is
		// proven, the new leaf is not.
		edited := forkbase.NewBlob(randBytes(2, 300<<10))
		old := scratchTree(t, scratch, edited)
		if err := edited.Splice(150_000, 128, randBytes(4, 128)); err != nil {
			t.Fatal(err)
		}
		inOld := treeChunks(t, old)
		var newIndex, newLeaves []*chunk.Chunk
		index, lvs := splitLevels(t, types.TreeOf(edited))
		for _, n := range index {
			if inOld[n.ID()] == nil {
				newIndex = append(newIndex, n)
			}
		}
		for _, n := range lvs {
			if inOld[n.ID()] == nil {
				newLeaves = append(newLeaves, n)
			}
		}
		if len(newIndex) == 0 || len(newLeaves) == 0 {
			t.Fatalf("the edit made %d index nodes and %d leaves", len(newIndex), len(newLeaves))
		}
		sendRaw(t, c, "doc", newIndex...)
		uid, err = commitRaw(t, c, wire.CallOptions{}, "doc", types.TreeOf(edited), types.TypeBlob)
		mustRefuse("new leaf missing", uid, err)
		sendRaw(t, c, "doc", newLeaves...)
		uid, err = commitRaw(t, c, wire.CallOptions{}, "doc", types.TreeOf(edited), types.TypeBlob)
		committed("edit of the head, only its new nodes uploaded", "doc", uid, err)
	})

	t.Run("HeadOfAnotherType", func(t *testing.T) {
		m := forkbase.NewMap()
		if err := m.Set([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Put(ctx, "typed", m); err != nil {
			t.Fatal(err)
		}
		tr, leaves := orphaned("typed", 5)
		uid, err := commitRaw(t, c, wire.CallOptions{}, "typed", tr, types.TypeBlob)
		mustRefuse("type change, leaves missing", uid, err)
		sendRaw(t, c, "typed", leaves...)
		uid, err = commitRaw(t, c, wire.CallOptions{}, "typed", tr, types.TypeBlob)
		committed("type change, complete", "typed", uid, err)
	})

	t.Run("BaseThatIsNotAHead", func(t *testing.T) {
		// A version that merely loads is no reference: this one was
		// never committed — its meta chunk and the index nodes of its
		// tree were uploaded like any other chunk.
		forged := forkbase.NewBlob(randBytes(6, 300<<10))
		fo, err := types.Save(scratch, postree.DefaultConfig(), []byte("doc"), forged, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := scratch.Get(fo.UID())
		if err != nil {
			t.Fatal(err)
		}
		index, leaves := splitLevels(t, types.TreeOf(forged))
		sendRaw(t, c, "doc", append(index, leaves[0], meta)...)
		uid, err := commitRaw(t, c, wire.CallOptions{Bases: []forkbase.UID{fo.UID()}}, "doc", types.TreeOf(forged), types.TypeBlob)
		mustRefuse("base is an uploaded meta chunk", uid, err)

		// A real but superseded version is not used as the reference
		// either, and costs nothing but the shortcut: the put commits.
		hist, err := db.Track(ctx, "doc", 1, 1)
		if err != nil || len(hist) != 1 {
			t.Fatalf("history of doc: %v (%d versions)", err, len(hist))
		}
		oldVal, err := db.BlobOf(hist[0])
		if err != nil {
			t.Fatal(err)
		}
		data, err := oldVal.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		derived := forkbase.NewBlob(data)
		before := treeChunks(t, scratchTree(t, scratch, derived))
		if err := derived.Splice(7_000, 64, randBytes(7, 64)); err != nil {
			t.Fatal(err)
		}
		var news []*chunk.Chunk
		for id, n := range treeChunks(t, types.TreeOf(derived)) {
			if before[id] == nil {
				news = append(news, n)
			}
		}
		sendRaw(t, c, "doc", news...)
		uid, err = commitRaw(t, c, wire.CallOptions{Bases: []forkbase.UID{hist[0].UID()}}, "doc", types.TreeOf(derived), types.TypeBlob)
		committed("derived from a superseded version", "doc", uid, err)

		// That put made an untagged head; deriving from it again is
		// verified against it.
		before = treeChunks(t, types.TreeOf(derived))
		if err := derived.Splice(90_000, 64, randBytes(8, 64)); err != nil {
			t.Fatal(err)
		}
		news = news[:0]
		for id, n := range treeChunks(t, types.TreeOf(derived)) {
			if before[id] == nil {
				news = append(news, n)
			}
		}
		sendRaw(t, c, "doc", news...)
		uid2, err := commitRaw(t, c, wire.CallOptions{Bases: []forkbase.UID{uid}}, "doc", types.TreeOf(derived), types.TypeBlob)
		committed("derived from an untagged head", "doc", uid2, err)
	})
}

// TestChunkSyncStaleKnowledgeRetriesOnce: the client fetched a value,
// the branch was removed and its chunks collected, and the client puts
// an edit of what it still holds. Its first commit lists only the new
// nodes and is refused; the one retry negotiates the whole tree.
func TestChunkSyncStaleKnowledgeRetriesOnce(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data := randBytes(31, 512<<10)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	o, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveBranch(ctx, "doc", forkbase.DefaultBranch); err != nil {
		t.Fatal(err)
	}
	if st, err := db.GC(ctx); err != nil || st.Reclaimed == 0 {
		t.Fatalf("collection after removing the branch: %+v, %v", st, err)
	}
	ins := randBytes(32, 128)
	if err := b.Splice(200_000, 128, ins); err != nil {
		t.Fatal(err)
	}
	commits := clientCalls(rc, "put_chunked")
	uid, err := rc.Put(ctx, "doc", b)
	if err != nil {
		t.Fatalf("put after the server collected the tree: %v", err)
	}
	if got := clientCalls(rc, "put_chunked") - commits; got != 2 {
		t.Fatalf("the put committed %d times; want the refused commit and one retry", got)
	}
	head, err := db.Get(ctx, "doc")
	if err != nil || head.UID() != uid {
		t.Fatalf("server head: %v", err)
	}
	sb, err := db.BlobOf(head)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sb.Bytes(); err != nil || !bytes.Equal(got, spliceAt(data, ins, 200_000)) {
		t.Fatalf("server content after the retried put: %v", err)
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d shields left after the retried put", n)
	}
	if n := rc.StagedChunksForTest(); n != 0 {
		t.Fatalf("%d chunks still staged after a put that succeeded", n)
	}
}

// TestChunkSyncWholeTreeNegotiationLeavesNoShields: a client that asks
// about every node of the tree before it commits — what every client
// did before the staged set — is served as before and leaves nothing
// shielded, on the connection or in the engine.
func TestChunkSyncWholeTreeNegotiationLeavesNoShields(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	c := rawChunkConn(t, addr)
	data := randBytes(41, 300<<10)
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	edited := forkbase.NewBlob(data)
	scratch := store.NewMemStore()
	scratchTree(t, scratch, edited)
	if err := edited.Splice(123_456, 128, randBytes(42, 128)); err != nil {
		t.Fatal(err)
	}
	tr := types.TreeOf(edited)
	var ids []chunk.ID
	nodes := treeChunks(t, tr)
	for id := range nodes {
		ids = append(ids, id)
	}
	var missing []*chunk.Chunk
	for i, present := range haveRaw(t, c, "doc", ids) {
		if !present {
			missing = append(missing, nodes[ids[i]])
		}
	}
	if len(missing) == 0 || len(missing) == len(ids) {
		t.Fatalf("the server lacks %d of %d nodes after a small edit", len(missing), len(ids))
	}
	if n := srv.ConnShieldsForTest(); n != len(ids)-len(missing) {
		t.Fatalf("%d shields after a Have that found %d nodes present", n, len(ids)-len(missing))
	}
	sendRaw(t, c, "doc", missing...)
	if n := srv.ConnShieldsForTest(); n != len(ids) {
		t.Fatalf("%d shields after the upload; want the tree's %d nodes", n, len(ids))
	}
	if _, err := commitRaw(t, c, wire.CallOptions{}, "doc", tr, types.TypeBlob); err != nil {
		t.Fatal(err)
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d connection shields left after the commit", n)
	}
	for id := range nodes {
		if db.ShieldedForTest(id) {
			t.Fatalf("the engine still shields %s after the commit", id.Short())
		}
	}
}

// TestChunkSyncShieldsAreReleasedPerKeyAndOnDisconnect: two
// negotiations share a connection and a chunk. The commit of one key
// releases that key's shields and leaves the other's — the shared
// chunk included — and hanging up releases whatever is left.
func TestChunkSyncShieldsAreReleasedPerKeyAndOnDisconnect(t *testing.T) {
	ctx := context.Background()
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	c := rawChunkConn(t, addr)
	if _, err := db.Put(ctx, "seen", forkbase.NewBlob(randBytes(51, 64<<10))); err != nil {
		t.Fatal(err)
	}
	o, err := db.Get(ctx, "seen")
	if err != nil {
		t.Fatal(err)
	}
	shared, _, _, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	orphanA := chunk.New(chunk.TypeBlob, randBytes(52, 2000))
	orphanB := chunk.New(chunk.TypeBlob, randBytes(53, 2000))
	scratch := store.NewMemStore()
	small := scratchTree(t, scratch, forkbase.NewBlob([]byte("one leaf")))
	leaf, err := scratch.Get(small.Root())
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved on the one connection: a, b, a, b.
	sendRaw(t, c, "a", orphanA, leaf)
	sendRaw(t, c, "b", orphanB)
	if got := haveRaw(t, c, "a", []chunk.ID{shared}); !got[0] {
		t.Fatal("the server does not hold the chunk both negotiations ask about")
	}
	haveRaw(t, c, "b", []chunk.ID{shared})
	if n := srv.ConnShieldsForTest(); n != 5 {
		t.Fatalf("%d shields for two negotiations of 3 and 2 chunks", n)
	}
	if _, err := commitRaw(t, c, wire.CallOptions{}, "a", small, types.TypeBlob); err != nil {
		t.Fatal(err)
	}
	if db.ShieldedForTest(orphanA.ID()) || db.ShieldedForTest(leaf.ID()) {
		t.Fatal("the commit of a left a's chunks shielded")
	}
	if !db.ShieldedForTest(orphanB.ID()) || !db.ShieldedForTest(shared) {
		t.Fatal("the commit of a released chunks b's negotiation holds")
	}
	if n := srv.ConnShieldsForTest(); n != 2 {
		t.Fatalf("%d shields left for b; want 2", n)
	}
	// A collection now takes a's orphan and must leave b's.
	if _, err := db.GC(ctx); err != nil {
		t.Fatal(err)
	}
	probe := rawChunkConn(t, addr)
	if probeChunk(t, probe, orphanA.ID()) || !probeChunk(t, probe, orphanB.ID()) {
		t.Fatal("a collection after a's commit: a's orphan must go, b's upload must stay")
	}

	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for db.ShieldedForTest(orphanB.ID()) || db.ShieldedForTest(shared) || srv.ConnShieldsForTest() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("shields survived their connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPutChunkedKeepsShieldsUntilThePutReturns looks at the engine's
// shields from inside the put, at the moment it writes the new
// version's meta chunk: the root of the head the verification leaned
// on and the chunks the client uploaded must both still be roots, and
// neither may be once the put has returned.
func TestPutChunkedKeepsShieldsUntilThePutReturns(t *testing.T) {
	ctx := context.Background()
	cs := &countingStore{MemStore: store.NewMemStore()}
	db := forkbase.NewDBOn(cs, postree.DefaultConfig())
	var watch atomic.Value // []chunk.ID to look at
	var seen atomic.Value  // []bool, as found inside the put
	cs.onPut = func(c *chunk.Chunk) error {
		if ids, _ := watch.Load().([]chunk.ID); c.Type() == chunk.TypeMeta && ids != nil {
			found := make([]bool, len(ids))
			for i, id := range ids {
				found[i] = db.ShieldedForTest(id)
			}
			seen.Store(found)
		}
		return nil
	}
	addr, _ := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := db.Put(ctx, "doc", forkbase.NewBlob(randBytes(61, 300<<10))); err != nil {
		t.Fatal(err)
	}
	o, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, _, _, err := types.ParseChunkRef(o.Data)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Splice(99_000, 128, randBytes(62, 128)); err != nil {
		t.Fatal(err)
	}
	newRoot := types.TreeOf(b).Root()
	watch.Store([]chunk.ID{oldRoot, newRoot})
	if _, err := rc.Put(ctx, "doc", b); err != nil {
		t.Fatal(err)
	}
	found, _ := seen.Load().([]bool)
	if len(found) != 2 || !found[0] || !found[1] {
		t.Fatalf("inside the put, shielded(reference root, uploaded root) = %v; want both", found)
	}
	if db.ShieldedForTest(oldRoot) || db.ShieldedForTest(newRoot) {
		t.Fatal("shields outlived the put")
	}
}

// TestChunkSyncFailedSendKeepsChunksStaged: a chunk is staged until a
// Send that carried it has been acknowledged. The first put's Send is
// refused by the server; the second put must ask about the same chunks
// again and upload them, in one pass — a client that had written them
// off after the Have would commit a tree the server does not hold and
// need the stale-knowledge retry to recover.
func TestChunkSyncFailedSendKeepsChunksStaged(t *testing.T) {
	ctx := context.Background()
	cs := &countingStore{MemStore: store.NewMemStore()}
	var failing atomic.Bool
	cs.onPut = func(c *chunk.Chunk) error {
		if c.Type() != chunk.TypeMeta && failing.Load() {
			return errors.New("disk full")
		}
		return nil
	}
	db := forkbase.NewDBOn(cs, postree.DefaultConfig())
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	v := forkbase.NewBlob(randBytes(71, 300<<10))
	failing.Store(true)
	if _, err := rc.Put(ctx, "doc", v); err == nil {
		t.Fatal("put succeeded although the server refused the upload")
	}
	nodes := len(treeChunks(t, types.TreeOf(v)))
	if n := rc.StagedChunksForTest(); n != nodes {
		t.Fatalf("%d chunks staged after a refused Send; the tree has %d", n, nodes)
	}
	failing.Store(false)
	have := serverCounter(t, srv, "forkbase_server_chunksync_bytes_total", `op="have"`)
	commits := clientCalls(rc, "put_chunked")
	if _, err := rc.Put(ctx, "doc", v); err != nil {
		t.Fatal(err)
	}
	if got := clientCalls(rc, "put_chunked") - commits; got != 1 {
		t.Fatalf("the second put committed %d times; want 1", got)
	}
	if got := serverCounter(t, srv, "forkbase_server_chunksync_bytes_total", `op="have"`) - have; got != int64(nodes*chunk.IDSize) {
		t.Fatalf("the second put asked about %d chunks; want the tree's %d", got/chunk.IDSize, nodes)
	}
	if n := rc.StagedChunksForTest(); n != 0 {
		t.Fatalf("%d chunks staged after the put succeeded", n)
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d shields left", n)
	}
}

// TestChunkSyncFailedPipelinedSendKeepsEditStaged: the Send of an
// edit's put, pipelined with its commit, is refused by the server. The
// put reports the Send's error, not the commit's, commits nothing and
// keeps the edit's chunks staged; the next put commits once and leaves
// no shields.
func TestChunkSyncFailedPipelinedSendKeepsEditStaged(t *testing.T) {
	ctx := context.Background()
	cs := &countingStore{MemStore: store.NewMemStore()}
	var failing atomic.Bool
	cs.onPut = func(c *chunk.Chunk) error {
		if c.Type() != chunk.TypeMeta && failing.Load() {
			return errors.New("disk full")
		}
		return nil
	}
	db := forkbase.NewDBOn(cs, postree.DefaultConfig())
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data := randBytes(91, 300<<10)
	seed, err := db.Put(ctx, "doc", forkbase.NewBlob(data))
	if err != nil {
		t.Fatal(err)
	}
	o, err := rc.Get(ctx, "doc")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rc.Value(ctx, "doc", o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		t.Fatal(err)
	}
	ins := randBytes(92, 128)
	if err := b.Splice(150_000, 128, ins); err != nil {
		t.Fatal(err)
	}
	staged := rc.StagedChunksForTest()
	if staged == 0 {
		t.Fatal("the edit staged nothing")
	}

	failing.Store(true)
	writes := rc.RecordSocketWritesForTest()
	calls := map[string]int64{}
	for _, op := range []string{"chunk_have", "chunk_send", "put_chunked"} {
		calls[op] = clientCalls(rc, op)
	}
	_, err = rc.Put(ctx, "doc", b)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("put with the Send refused: %v; want the Send's error", err)
	}
	if w := writes.Take(); len(w) != 1 || len(w[0]) != 2 {
		t.Fatalf("the put's socket writes carried ops %v; want the Send and the commit in one", w)
	}
	want := map[string]int64{"chunk_have": 0, "chunk_send": 1, "put_chunked": 1}
	for op, was := range calls {
		if got := clientCalls(rc, op) - was; got != want[op] {
			t.Fatalf("the put made %d %s calls; want %d", got, op, want[op])
		}
	}
	if head, err := db.Get(ctx, "doc"); err != nil || head.UID() != seed {
		t.Fatalf("the head moved after a refused upload: %v", err)
	}
	if hist, err := db.Track(ctx, "doc", 0, 10); err != nil || len(hist) != 1 {
		t.Fatalf("history after a refused upload: %d versions, %v; want the seed alone", len(hist), err)
	}
	if n := rc.StagedChunksForTest(); n != staged {
		t.Fatalf("%d chunks staged after the refused Send; the edit staged %d", n, staged)
	}

	failing.Store(false)
	commits := clientCalls(rc, "put_chunked")
	uid, err := rc.Put(ctx, "doc", b)
	if err != nil {
		t.Fatal(err)
	}
	if got := clientCalls(rc, "put_chunked") - commits; got != 1 {
		t.Fatalf("the second put committed %d times; want 1", got)
	}
	head, err := db.Get(ctx, "doc")
	if err != nil || head.UID() != uid {
		t.Fatalf("server head after the second put: %v", err)
	}
	sb, err := db.BlobOf(head)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sb.Bytes(); err != nil || !bytes.Equal(got, spliceAt(data, ins, 150_000)) {
		t.Fatalf("server content after the second put: %v", err)
	}
	if n := rc.StagedChunksForTest(); n != 0 {
		t.Fatalf("%d chunks staged after the put succeeded", n)
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d shields left", n)
	}
}

// TestChunkSyncSendAppliesBeforeNextFrame: a chunk-sync server applies
// a Send before it reads the next frame on the connection, so a commit
// written right behind it, in the same socket write, finds every chunk
// it relies on. Fifty fresh trees, each uploaded whole and committed in
// one write: every Send and every commit must succeed. A server that
// handed the Send to a worker would let some commit overtake its upload
// and answer it incomplete.
func TestChunkSyncSendAppliesBeforeNextFrame(t *testing.T) {
	db := forkbase.Open()
	addr, srv := startServer(t, db, forkbase.ServerOptions{})
	c := rawChunkConn(t, addr)
	scratch := store.NewMemStore()
	for i := 0; i < 50; i++ {
		key, data := fmt.Sprintf("doc%d", i), randBytes(int64(1000+i), 256<<10)
		tr := scratchTree(t, scratch, forkbase.NewBlob(data))
		index, leaves := splitLevels(t, tr)
		var send, commit wire.Enc
		wire.EncodeCallOptions(&send, wire.CallOptions{})
		send.Str(key)
		wire.EncodeChunkUpload(&send, append(leaves, index...))
		wire.EncodeCallOptions(&commit, wire.CallOptions{})
		commit.Str(key)
		commit.U8(uint8(types.TypeBlob))
		commit.UID(tr.Root())
		sendID, commitID := uint64(2*i+100), uint64(2*i+101)
		frames := wire.AppendFrame(nil, sendID, wire.OpChunkSend, send.Bytes())
		frames = wire.AppendFrame(frames, commitID, wire.OpPutChunked, commit.Bytes())
		if _, err := c.Write(frames); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			id, op, payload, err := wire.ReadFrame(c, 0)
			if err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
			if len(payload) == 0 || (id != sendID && id != commitID) {
				t.Fatalf("tree %d: unexpected answer to request %d (op %d)", i, id, op)
			}
			if payload[0] != 0 {
				ep, _ := wire.DecodeError(wire.NewDec(payload[1:]))
				t.Fatalf("tree %d: op %s failed: %v", i, wire.OpName(op), ep.Err)
			}
		}
		head, err := db.Get(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := db.BlobOf(head)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sb.Bytes(); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("tree %d: server content after the commit: %v", i, err)
		}
	}
	if n := srv.ConnShieldsForTest(); n != 0 {
		t.Fatalf("%d shields left", n)
	}
}

// TestChunkSyncHaveInsideGCWindowProtects answers a Have while a
// collection is parked between reading its roots and sweeping. The
// chunk asked about is present but unreachable, so the collection's
// mark will not reach it and the shield the Have takes comes after the
// collection read the shields. The client, told "present", will not
// send the chunk; the sweep must not take it.
func TestChunkSyncHaveInsideGCWindowProtects(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *forkbase.DB
	}{
		{"mem", func(*testing.T) *forkbase.DB { return forkbase.Open() }},
		{"file", func(t *testing.T) *forkbase.DB {
			db, err := forkbase.OpenPath(t.TempDir(), forkbase.WithCacheBytes(1<<20))
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			db := tc.open(t)
			addr, _ := startServer(t, db, forkbase.ServerOptions{})
			c := rawChunkConn(t, addr)
			if _, err := db.Put(ctx, "doc", forkbase.NewBlob(randBytes(51, 64<<10))); err != nil {
				t.Fatal(err)
			}
			orphan := chunk.New(chunk.TypeBlob, randBytes(52, 4<<10))
			cs := db.ChunkStoreForTest()
			if _, err := cs.Put(orphan); err != nil {
				t.Fatal(err)
			}
			answered := false
			db.SetRootsHookForTest(func() {
				db.SetRootsHookForTest(nil)
				answered = true
				if bits := haveRaw(t, c, "doc", []chunk.ID{orphan.ID()}); !bits[0] {
					t.Fatal("the Have answered absent for a chunk the store holds")
				}
			})
			if _, err := db.GC(ctx); err != nil {
				t.Fatal(err)
			}
			if !answered {
				t.Fatal("the collection never reached the point between its root reads")
			}
			if !cs.Has(orphan.ID()) {
				t.Fatal("the sweep took a chunk a Have inside its window answered present")
			}
			if _, err := cs.Get(orphan.ID()); err != nil {
				t.Fatalf("the chunk the Have answered present no longer reads: %v", err)
			}
		})
	}
}
