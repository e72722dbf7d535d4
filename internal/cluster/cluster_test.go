package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/core"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
)

// ctx is the shared root for tests: nothing here exercises cancellation.
var ctx = context.Background()

// The cluster only routes: these helpers are the requests the tests
// send through it, the way the root package's ClusterClient hands in
// its contract methods.

func put(c *Cluster, key, branchName string, v types.Value) (uid types.UID, err error) {
	err = c.Exec(ctx, key, func(eng *core.Engine) (err error) {
		uid, err = eng.Put([]byte(key), branchName, v, nil)
		return err
	})
	return uid, err
}

func get(c *Cluster, key, branchName string) (o *types.FObject, err error) {
	err = c.Exec(ctx, key, func(eng *core.Engine) (err error) {
		o, err = eng.Get([]byte(key), branchName)
		return err
	})
	return o, err
}

// value decodes o against the store visible to key's owning servlet.
func value(c *Cluster, key string, o *types.FObject) (types.Value, error) {
	return c.Servlet(c.Master().Route(key)).Engine().Value(o)
}

func fork(c *Cluster, key, refBranch, newBranch string) error {
	return c.Exec(ctx, key, func(eng *core.Engine) error {
		return eng.Fork([]byte(key), refBranch, newBranch)
	})
}

func taggedBranches(c *Cluster, key string) (out []branch.TaggedBranch, err error) {
	err = c.Exec(ctx, key, func(eng *core.Engine) error {
		out = eng.ListTaggedBranches([]byte(key))
		return nil
	})
	return out, err
}

func TestRoutingIsStable(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.Master().Route(k) != c.Master().Route(k) {
			t.Fatal("routing not deterministic")
		}
	}
}

func TestClusterPutGet(t *testing.T) {
	for _, placement := range []Placement{OneLayer, TwoLayer} {
		c, err := New(Options{Nodes: 4, Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%d", i)
			if _, err := put(c, k, "master", types.String(fmt.Sprintf("v-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("key-%d", i)
			o, err := get(c, k, "master")
			if err != nil {
				t.Fatalf("placement %v: %v", placement, err)
			}
			if string(o.Data) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("placement %v: got %q", placement, o.Data)
			}
		}
		c.Close()
	}
}

func TestClusterChunkableValues(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := put(c, "blob", "master", types.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	o, err := get(c, "blob", "master")
	if err != nil {
		t.Fatal(err)
	}
	v, err := value(c, "blob", o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.(*types.Blob).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatalf("len %d, want %d", len(got), len(data))
	}
	// Under 2LP the blob's chunks must be spread across nodes, not
	// concentrated on the key's owner.
	nodesWithData := 0
	for _, b := range c.NodeStorageBytes() {
		if b > 0 {
			nodesWithData++
		}
	}
	if nodesWithData < 3 {
		t.Fatalf("2LP left chunks on only %d nodes", nodesWithData)
	}
}

// TestSkewBalance is the Figure 15 property: under a Zipf-skewed key
// workload, 1LP storage is skewed and 2LP storage stays balanced.
func TestSkewBalance(t *testing.T) {
	imbalance := func(placement Placement) float64 {
		c, err := New(Options{Nodes: 8, Placement: placement})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rng, 1.5, 1, 63)
		payload := make([]byte, 8<<10)
		for i := 0; i < 300; i++ {
			rng.Read(payload)
			k := fmt.Sprintf("page-%d", zipf.Uint64())
			if _, err := put(c, k, "master", types.NewBlob(payload)); err != nil {
				t.Fatal(err)
			}
		}
		bytes := c.NodeStorageBytes()
		var max, sum float64
		for _, b := range bytes {
			sum += float64(b)
			max = math.Max(max, float64(b))
		}
		return max / (sum / float64(len(bytes)))
	}
	skew1 := imbalance(OneLayer)
	skew2 := imbalance(TwoLayer)
	if skew2 > 2 {
		t.Fatalf("2LP imbalance %.2f, want near 1", skew2)
	}
	if skew1 < skew2 {
		t.Fatalf("1LP (%.2f) should be more skewed than 2LP (%.2f)", skew1, skew2)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("key-%d", (g*50+i)%64)
				if _, err := put(c, k, "master", types.String("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := get(c, k, "master"); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClusterPoolCache checks the per-servlet cache in front of the
// 2LP shared pool: repeated reads of the same chunkable value are
// served from the cache (hits accrue) and stay correct, with
// verification stacked below.
func TestClusterPoolCache(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer, CacheBytes: 8 << 20, VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := put(c, "blob", "master", types.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	read := func() {
		o, err := get(c, "blob", "master")
		if err != nil {
			t.Fatal(err)
		}
		v, err := value(c, "blob", o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.(*types.Blob).Bytes()
		if err != nil || len(got) != len(data) {
			t.Fatalf("cached read broken: %v len=%d", err, len(got))
		}
	}
	read()
	owner := c.Master().Route("blob")
	first := c.Servlet(owner).Engine().Store().Stats()
	for i := 0; i < 4; i++ {
		read()
	}
	after := c.Servlet(owner).Engine().Store().Stats()
	if after.CacheHits <= first.CacheHits {
		t.Fatalf("repeated reads accrued no cache hits: first=%+v after=%+v", first, after)
	}
}

func TestForkAcrossCluster(t *testing.T) {
	c, err := New(Options{Nodes: 3, Placement: TwoLayer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := put(c, "doc", "master", types.String("v1")); err != nil {
		t.Fatal(err)
	}
	if err := fork(c, "doc", "master", "dev"); err != nil {
		t.Fatal(err)
	}
	branches, err := taggedBranches(c, "doc")
	if err != nil || len(branches) != 2 {
		t.Fatalf("branches: %v %v", branches, err)
	}
	if _, err := put(c, "doc", "dev", types.String("v2")); err != nil {
		t.Fatal(err)
	}
	o, _ := get(c, "doc", "master")
	if string(o.Data) != "v1" {
		t.Fatal("fork isolation broken across cluster")
	}
}

// recorder keeps every chunk put through it.
type recorder struct {
	store.Store
	puts []*chunk.Chunk
}

func (r *recorder) Put(c *chunk.Chunk) (bool, error) {
	r.puts = append(r.puts, c)
	return r.Store.Put(c)
}

// TestClusterVerifyReadsCatchesForgedChunk: under 2LP with VerifyReads,
// a chunk whose bytes do not match its cid on its home node surfaces
// as ErrCorrupt when the value naming it is read, whichever path — the
// owner's local view or the shared pool — finds it.
func TestClusterVerifyReadsCatchesForgedChunk(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer, VerifyReads: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(data)
	rec := &recorder{Store: store.NewMemStore()}
	if err := types.Persist(rec, postree.DefaultConfig(), types.NewBlob(data)); err != nil {
		t.Fatal(err)
	}
	real := rec.puts[0]
	b := real.Bytes()
	b[len(b)-1] ^= 0xff
	forged, err := chunk.DecodeStored(b, real.ID())
	if err != nil {
		t.Fatal(err)
	}
	members := make([]store.Store, len(c.nodes))
	for i, n := range c.nodes {
		members[i] = n
	}
	home := store.NewPool(members).Home(real.ID())
	if _, err := c.nodes[home].Put(forged); err != nil {
		t.Fatal(err)
	}
	// One key owned by the home node's servlet (its local view finds the
	// chunk) and one owned elsewhere (only the pool finds it).
	keys := map[bool]string{}
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("blob-%d", i)
		keys[c.master.Route(k) == home] = k
	}
	for local, k := range keys {
		if _, err := put(c, k, "master", types.NewBlob(data)); err != nil {
			t.Fatal(err)
		}
		o, err := get(c, k, "master")
		if err != nil {
			t.Fatal(err)
		}
		v, err := value(c, k, o)
		if err == nil {
			_, err = v.(*types.Blob).Bytes()
		}
		if !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("owner holds the chunk=%v: read over a forged chunk: %v, want ErrCorrupt", local, err)
		}
	}
}
