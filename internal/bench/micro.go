package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/workload"
)

// RunTable3 reproduces Table 3: throughput and average latency of nine
// ForkBase operations at 1 KB and 20 KB request sizes, driven by
// concurrent clients against one instance.
func RunTable3(w io.Writer, scale Scale) error {
	clients := 32
	opsPerClient := scale.pick(200, 2000)
	sizes := []int{1 << 10, 20 << 10}

	fmt.Fprintln(w, "Table 3: Performance of ForkBase Operations")
	t := newTable(w, 16, 14, 14, 14, 14)
	t.row("Operation", "tput-1KB", "tput-20KB", "lat-1KB", "lat-20KB")

	// Pre-generated payload pool: value generation must not pollute
	// the measured operation latency. Each op stamps a unique prefix
	// so deduplication cannot elide the write.
	pools := map[int][][]byte{}
	for _, size := range sizes {
		pool := make([][]byte, 16)
		for i := range pool {
			pool[i] = payload(size, i)
		}
		pools[size] = pool
	}
	uniquePayload := func(size, c, i int) []byte {
		pool := pools[size]
		p := append([]byte(nil), pool[(c*31+i)%len(pool)]...)
		copy(p, fmt.Sprintf("%08d-%08d", c, i))
		return p
	}

	type opSpec struct {
		name  string
		setup func(db *forkbase.DB, size int)
		run   func(db *forkbase.DB, size int, client, i int) error
	}
	keyOf := func(client, i int) string { return fmt.Sprintf("k-%d-%d", client, i) }
	ops := []opSpec{
		{"Put-String", nil, func(db *forkbase.DB, size, c, i int) error {
			_, err := db.Put(bgCtx, keyOf(c, i), forkbase.String(uniquePayload(size, c, i)))
			return err
		}},
		{"Put-Blob", nil, func(db *forkbase.DB, size, c, i int) error {
			_, err := db.Put(bgCtx, keyOf(c, i), forkbase.NewBlob(uniquePayload(size, c, i)))
			return err
		}},
		{"Put-Map", nil, func(db *forkbase.DB, size, c, i int) error {
			m := forkbase.NewMap()
			p := uniquePayload(size, c, i)
			for j := 0; j+100 <= len(p); j += 100 {
				m.Set(p[j:j+8], p[j+8:j+100])
			}
			_, err := db.Put(bgCtx, keyOf(c, i), m)
			return err
		}},
		{"Get-String", func(db *forkbase.DB, size int) { preload(db, forkbase.String(payload(size, 1)), 64) },
			func(db *forkbase.DB, size, c, i int) error {
				_, err := db.Get(bgCtx, fmt.Sprintf("pre-%d", i%64))
				return err
			}},
		{"Get-Blob-Meta", func(db *forkbase.DB, size int) { preload(db, forkbase.NewBlob(payload(size, 1)), 64) },
			func(db *forkbase.DB, size, c, i int) error {
				// Meta read: version record only, no tree traversal.
				_, err := db.Get(bgCtx, fmt.Sprintf("pre-%d", i%64))
				return err
			}},
		{"Get-Blob-Full", func(db *forkbase.DB, size int) { preload(db, forkbase.NewBlob(payload(size, 1)), 64) },
			func(db *forkbase.DB, size, c, i int) error {
				o, err := db.Get(bgCtx, fmt.Sprintf("pre-%d", i%64))
				if err != nil {
					return err
				}
				b, err := db.BlobOf(o)
				if err != nil {
					return err
				}
				_, err = b.Bytes()
				return err
			}},
		{"Get-Map-Full", func(db *forkbase.DB, size int) {
			m := forkbase.NewMap()
			p := payload(size, 1)
			for j := 0; j+100 <= len(p); j += 100 {
				m.Set(p[j:j+8], p[j+8:j+100])
			}
			preload(db, m, 64)
		}, func(db *forkbase.DB, size, c, i int) error {
			o, err := db.Get(bgCtx, fmt.Sprintf("pre-%d", i%64))
			if err != nil {
				return err
			}
			m, err := db.MapOf(o)
			if err != nil {
				return err
			}
			return m.Iter(func(k, v []byte) bool { return true })
		}},
		{"Track", func(db *forkbase.DB, size int) {
			for v := 0; v < 8; v++ {
				preload(db, forkbase.NewBlob(payload(size, v)), 64)
			}
		}, func(db *forkbase.DB, size, c, i int) error {
			_, err := db.Track(bgCtx, fmt.Sprintf("pre-%d", i%64), 0, 3)
			return err
		}},
		{"Fork", func(db *forkbase.DB, size int) { preload(db, forkbase.NewBlob(payload(size, 1)), 64) },
			func(db *forkbase.DB, size, c, i int) error {
				return db.Fork(bgCtx, fmt.Sprintf("pre-%d", i%64), fmt.Sprintf("b-%d-%d", c, i))
			}},
	}

	for _, op := range ops {
		var tputs, lats [2]string
		for si, size := range sizes {
			db := forkbase.Open()
			if op.setup != nil {
				op.setup(db, size)
			}
			var wg sync.WaitGroup
			lat := make([]time.Duration, clients)
			t0 := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					start := time.Now()
					for i := 0; i < opsPerClient; i++ {
						if err := op.run(db, size, c, i); err != nil {
							panic(fmt.Sprintf("%s: %v", op.name, err))
						}
					}
					lat[c] = time.Since(start) / time.Duration(opsPerClient)
				}(c)
			}
			wg.Wait()
			elapsed := time.Since(t0)
			var avg time.Duration
			for _, l := range lat {
				avg += l
			}
			avg /= time.Duration(clients)
			tputs[si] = opsPerSec(clients*opsPerClient, elapsed)
			lats[si] = fmt.Sprintf("%.3fms", float64(avg.Microseconds())/1000)
			db.Close()
		}
		t.row(op.name, tputs[0], tputs[1], lats[0], lats[1])
	}
	return nil
}

func payload(size, seed int) []byte {
	return workload.RandText(rand.New(rand.NewSource(int64(seed))), size)
}

func preload(db *forkbase.DB, v forkbase.Value, n int) {
	for i := 0; i < n; i++ {
		if _, err := db.Put(bgCtx, fmt.Sprintf("pre-%d", i), v); err != nil {
			panic(err)
		}
	}
}

// RunTable4 reproduces Table 4: the cost breakdown of a Put operation
// (serialization, deserialization, cryptographic hash, rolling hash,
// persistence) for String and Blob at 1 KB and 20 KB.
func RunTable4(w io.Writer, scale Scale) error {
	iters := scale.pick(2000, 20000)
	fmt.Fprintln(w, "Table 4: Breakdown of Put Operation (µs)")
	t := newTable(w, 16, 12, 12, 12, 12)
	t.row("Step", "String-1KB", "String-20KB", "Blob-1KB", "Blob-20KB")

	sizes := []int{1 << 10, 20 << 10}
	cols := make(map[string][4]float64)
	record := func(step string, col int, d time.Duration) {
		v := cols[step]
		v[col] = float64(d.Nanoseconds()) / float64(iters) / 1000
		cols[step] = v
	}

	dir, err := tempDir("fbbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	for si, size := range sizes {
		data := payload(size, si)
		cfg := postree.DefaultConfig()

		// String: columns 0-1; Blob: columns 2-3.
		strCol, blobCol := si, 2+si

		// Serialization: building the meta-chunk payload.
		mem := store.NewMemStore()
		obj, err := types.Save(mem, cfg, []byte("k"), types.String(data), nil, nil)
		if err != nil {
			return err
		}
		metaChunk, err := mem.Get(obj.UID())
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			s2 := store.NewMemStore()
			if _, err := types.Save(s2, cfg, []byte("k"), types.String(data), nil, nil); err != nil {
				return err
			}
		}
		record("Serialization", strCol, time.Since(t0))

		// Deserialization: decoding a fetched meta chunk.
		raw := metaChunk.Bytes()
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			c, err := chunk.Decode(raw)
			if err != nil {
				return err
			}
			_ = c
		}
		record("Deserialization", strCol, time.Since(t0))

		// CryptoHash: SHA-256 over the value bytes.
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			sha256.Sum256(data)
		}
		record("CryptoHash", strCol, time.Since(t0))
		record("CryptoHash", blobCol, time.Since(t0)) // same input size

		// RollingHash: the POS-Tree chunking pass (Blob only).
		t0 = time.Now()
		var cuts []int
		for i := 0; i < iters; i++ {
			cuts = rollsum.ScanBoundaries(cfg.LeafQ, 8<<cfg.LeafQ, data, cuts[:0])
		}
		record("RollingHash", blobCol, time.Since(t0))

		// Blob serialization: full POS-Tree construction.
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			s2 := store.NewMemStore()
			b := postree.NewBuilder(s2, cfg, postree.KindBlob)
			b.AppendBytes(data)
			if _, err := b.Finish(); err != nil {
				return err
			}
		}
		record("Serialization", blobCol, time.Since(t0))

		// Blob deserialization: load + full read.
		s2 := store.NewMemStore()
		bld := postree.NewBuilder(s2, cfg, postree.KindBlob)
		bld.AppendBytes(data)
		tree, err := bld.Finish()
		if err != nil {
			return err
		}
		t0 = time.Now()
		for i := 0; i < iters; i++ {
			tr, err := postree.Load(s2, cfg, postree.KindBlob, tree.Root())
			if err != nil {
				return err
			}
			if _, err := tr.Bytes(); err != nil {
				return err
			}
		}
		record("Deserialization", blobCol, time.Since(t0))

		// Persistence: appending the chunk(s) to the log store.
		for vi, name := range []string{"str", "blob"} {
			fs, err := store.OpenFileStore(fmt.Sprintf("%s/%s-%d", dir, name, size), store.FileStoreOptions{})
			if err != nil {
				return err
			}
			col := strCol
			if vi == 1 {
				col = blobCol
			}
			t0 = time.Now()
			for i := 0; i < iters; i++ {
				// Unique content per iteration so dedup does not elide the write.
				c := chunk.New(chunk.TypeBlob, append(payloadPrefix(i), data[8:]...))
				if _, err := fs.Put(c); err != nil {
					return err
				}
			}
			record("Persistence", col, time.Since(t0))
			fs.Close()
		}
	}

	for _, step := range []string{"Serialization", "Deserialization", "CryptoHash", "RollingHash", "Persistence"} {
		v := cols[step]
		cells := make([]interface{}, 0, 5)
		cells = append(cells, step)
		for _, x := range v {
			if x == 0 {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.1f", x))
			}
		}
		t.row(cells...)
	}
	return nil
}

func payloadPrefix(i int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%08d", i)
	return b.Bytes()
}
