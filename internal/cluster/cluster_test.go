package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"forkbase/internal/branch"
	"forkbase/internal/core"
	"forkbase/internal/types"
)

// ctx is the shared root for tests: nothing here exercises cancellation.
var ctx = context.Background()

// The cluster only routes: these helpers are the requests the tests
// send through it, the way the root package's ClusterClient hands in
// its policy functions.

func put(c *Cluster, key, branchName string, v types.Value) (uid types.UID, err error) {
	err = c.Put(ctx, key, v, func(eng *core.Engine) (err error) {
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

func TestRebalancedPut(t *testing.T) {
	c, err := New(Options{Nodes: 4, Placement: TwoLayer, Rebalance: true, RebalanceThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 32<<10)
	rand.New(rand.NewSource(2)).Read(data)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := put(c, "hot-key", "master", types.NewBlob(data)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	o, err := get(c, "hot-key", "master")
	if err != nil {
		t.Fatal(err)
	}
	v, err := value(c, "hot-key", o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.(*types.Blob).Bytes()
	if err != nil || len(got) != len(data) {
		t.Fatalf("rebalanced value broken: %v len=%d", err, len(got))
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

// TestClusterReopenRecoversSpaces proves a durable cluster (Root set)
// restarts whole: every servlet's branch tables, untagged heads and
// pins come back from its per-node metadata journal, chunk data comes
// back from its per-node log, and a GC run right after the restart
// reclaims nothing live — under both placements.
func TestClusterReopenRecoversSpaces(t *testing.T) {
	for _, placement := range []Placement{OneLayer, TwoLayer} {
		root := t.TempDir()
		opts := Options{Nodes: 3, Placement: placement, Root: root}
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		heads := map[string]types.UID{}
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("key-%d", i)
			uid, err := put(c, k, "master", types.String(fmt.Sprintf("v-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			heads[k] = uid
		}
		if err := fork(c, "key-3", "master", "dev"); err != nil {
			t.Fatal(err)
		}
		// Pin on the servlet owning key-5, and an untagged head on key-7.
		var pinned types.UID = heads["key-5"]
		sv := c.servlets[c.master.Route("key-5")]
		if err := sv.Exec(func(eng *core.Engine) error {
			return eng.PinUID(pinned)
		}); err != nil {
			t.Fatal(err)
		}
		var untagged types.UID
		if err := c.servlets[c.master.Route("key-7")].Exec(func(eng *core.Engine) error {
			var err error
			untagged, err = eng.PutBase([]byte("key-7"), heads["key-7"], types.String("fork-on-conflict"), nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// Garbage: drop key-9's only branch before the restart.
		if err := c.servlets[c.master.Route("key-9")].Exec(func(eng *core.Engine) error {
			return eng.RemoveBranch([]byte("key-9"), "master")
		}); err != nil {
			t.Fatal(err)
		}
		c.Close()

		re, err := New(opts)
		if err != nil {
			t.Fatalf("placement %v: reopen: %v", placement, err)
		}
		for i := 0; i < 40; i++ {
			if i == 9 {
				continue
			}
			k := fmt.Sprintf("key-%d", i)
			o, err := get(re, k, "master")
			if err != nil {
				t.Fatalf("placement %v: %s lost after restart: %v", placement, k, err)
			}
			if o.UID() != heads[k] || string(o.Data) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("placement %v: %s head diverged after restart", placement, k)
			}
		}
		if _, err := get(re, "key-9", "master"); err == nil {
			t.Fatalf("placement %v: removed branch resurrected", placement)
		}
		branches, err := taggedBranches(re, "key-3")
		if err != nil || len(branches) != 2 {
			t.Fatalf("placement %v: forked branches after restart: %v %v", placement, branches, err)
		}
		// GC on the freshly restarted cluster: the recovered roots must
		// protect everything live; key-9's exclusive chunks may go.
		if _, err := re.GC(context.Background(), 0); err != nil {
			t.Fatalf("placement %v: GC after restart: %v", placement, err)
		}
		for i := 0; i < 40; i++ {
			if i == 9 {
				continue
			}
			k := fmt.Sprintf("key-%d", i)
			if o, err := get(re, k, "master"); err != nil || string(o.Data) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("placement %v: %s lost by GC after restart: %v", placement, k, err)
			}
		}
		var gotPins, gotUB []types.UID
		if err := re.servlets[re.master.Route("key-5")].Exec(func(eng *core.Engine) error {
			gotPins = eng.Pins()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotPins) != 1 || gotPins[0] != pinned {
			t.Fatalf("placement %v: pins after restart: %v", placement, gotPins)
		}
		if err := re.servlets[re.master.Route("key-7")].Exec(func(eng *core.Engine) error {
			gotUB = eng.ListUntaggedBranches([]byte("key-7"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotUB) != 1 || gotUB[0] != untagged {
			t.Fatalf("placement %v: untagged heads after restart: %v", placement, gotUB)
		}
		re.Close()
	}
}
