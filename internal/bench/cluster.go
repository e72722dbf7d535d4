package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/workload"
)

// RunFig8 reproduces Figure 8: Get/Put throughput as servlets scale
// from 1 to 16 nodes, with 256 B and 2560 B values. Scaling is close to
// linear because servlets share nothing (§6.1).
func RunFig8(w io.Writer, scale Scale) error {
	nodesList := []int{1, 2, 4, 8, 12, 16}
	opsPerClient := scale.pick(300, 3000)
	clientsPerNode := 4
	fmt.Fprintln(w, "Figure 8: Scalability with multiple servlets (ops/sec)")
	t := newTable(w, 8, 14, 14, 14, 14)
	t.row("Nodes", "Get-256", "Put-256", "Get-2560", "Put-2560")

	for _, nodes := range nodesList {
		var cells [4]string
		for si, size := range []int{256, 2560} {
			c, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: nodes, TwoLayer: true})
			if err != nil {
				return err
			}
			clients := clientsPerNode * nodes
			value := payload(size, si)

			run := func(put bool) time.Duration {
				var wg sync.WaitGroup
				t0 := time.Now()
				for cl := 0; cl < clients; cl++ {
					wg.Add(1)
					go func(cl int) {
						defer wg.Done()
						for i := 0; i < opsPerClient; i++ {
							key := fmt.Sprintf("k-%d-%d", cl, i)
							if put {
								if _, err := c.Put(bgCtx, key, forkbase.String(value)); err != nil {
									panic(err)
								}
							} else {
								if _, err := c.Get(bgCtx, key); err != nil {
									panic(err)
								}
							}
						}
					}(cl)
				}
				wg.Wait()
				return time.Since(t0)
			}
			putTime := run(true)
			getTime := run(false)
			cells[si*2] = opsPerSec(clients*opsPerClient, getTime)
			cells[si*2+1] = opsPerSec(clients*opsPerClient, putTime)
			c.Close()
		}
		t.row(nodes, cells[0], cells[1], cells[2], cells[3])
	}
	return nil
}

// RunFig15 reproduces Figure 15: per-node storage size under a
// Zipf-skewed wiki workload, comparing one-layer partitioning (page
// content stored on the key's owner) against the two-layer scheme
// (chunks spread by cid).
func RunFig15(w io.Writer, scale Scale) error {
	nodes := 16
	pages := scale.pick(400, 3200)
	edits := scale.pick(800, 10000)
	pageSize := 15 << 10

	fmt.Fprintln(w, "Figure 15: Storage size distribution under zipf-skewed load (16 nodes)")
	t := newTable(w, 10, 16, 16)
	t.row("Node", "1LP-bytes", "2LP-bytes")

	sizes := make(map[bool][]int64) // by ClusterConfig.TwoLayer
	for _, twoLayer := range []bool{false, true} {
		c, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: nodes, TwoLayer: twoLayer})
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(99))
		trace := workload.NewWikiTrace(7, pages, 200, 0.9, 1.5)
		// Seed pages then edit with skew; page content goes through
		// the cluster as Blobs.
		contents := make(map[string][]byte)
		for i := 0; i < edits; i++ {
			e := trace.Next(pageSize)
			cur, ok := contents[e.Page]
			if !ok {
				cur = workload.RandText(rng, pageSize)
			}
			off := e.Offset
			if off > len(cur) {
				off = len(cur)
			}
			end := off + len(e.Content)
			if end > len(cur) {
				end = len(cur)
			}
			next := append(append(append([]byte(nil), cur[:off]...), e.Content...), cur[end:]...)
			contents[e.Page] = next
			if _, err := c.Put(bgCtx, e.Page, forkbase.NewBlob(next)); err != nil {
				return err
			}
		}
		sizes[twoLayer] = c.Cluster().NodeStorageBytes()
		c.Close()
	}
	var max1, min1, max2, min2 int64
	for i := 0; i < nodes; i++ {
		s1, s2 := sizes[false][i], sizes[true][i]
		t.row(i, s1, s2)
		if i == 0 {
			max1, min1, max2, min2 = s1, s1, s2, s2
		}
		if s1 > max1 {
			max1 = s1
		}
		if s1 < min1 {
			min1 = s1
		}
		if s2 > max2 {
			max2 = s2
		}
		if s2 < min2 {
			min2 = s2
		}
	}
	fmt.Fprintf(w, "1LP max/min = %.2f   2LP max/min = %.2f\n", ratio(max1, min1), ratio(max2, min2))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return float64(a)
	}
	return float64(a) / float64(b)
}
