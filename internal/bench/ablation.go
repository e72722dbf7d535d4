package bench

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"forkbase/internal/postree"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// Ablations isolate the design choices behind the POS-Tree (see
// README, Evaluation). They are not paper figures but quantify why the
// POS-Tree is built the way it is.

// fixedSizeConfig disables the pattern (it can never fire before the
// forced max) so every leaf splits at exactly maxBytes — the strawman
// §4.3 argues against.
func fixedSizeConfig(maxBytes int) postree.Config {
	return postree.Config{LeafQ: 62, MaxLeafBytes: maxBytes, IndexR: 6}
}

// RunAblationFixedVsPattern demonstrates the boundary-shifting problem:
// after inserting a few bytes into the middle of a large blob,
// fixed-size chunking rewrites every chunk after the insertion point,
// while pattern-based chunking re-synchronizes within a chunk or two.
func RunAblationFixedVsPattern(w io.Writer, scale Scale) error {
	size := scale.pick(1<<20, 16<<20)
	data := payload(size, 31)

	fmt.Fprintln(w, "Ablation: fixed-size vs pattern-based splitting (middle insertion)")
	t := newTable(w, 14, 12, 14, 16)
	t.row("Splitting", "Chunks", "NewChunks", "NewBytes")

	for _, mode := range []struct {
		name string
		cfg  postree.Config
	}{
		{"fixed-4KB", fixedSizeConfig(4 << 10)},
		{"pattern-4KB", postree.DefaultConfig()},
	} {
		s := store.NewMemStore()
		b := postree.NewBuilder(s, mode.cfg, postree.KindBlob)
		b.AppendBytes(data)
		tree, err := b.Finish()
		if err != nil {
			return err
		}
		st, err := tree.TreeStats()
		if err != nil {
			return err
		}
		before := s.Stats()
		if _, err := tree.SpliceBytes(uint64(size/2), 0, []byte("inserted-bytes!")); err != nil {
			return err
		}
		after := s.Stats()
		t.row(mode.name, st.Leaves, after.Chunks-before.Chunks, after.Bytes-before.Bytes)
	}
	return nil
}

// RunAblationChunkSize sweeps the expected chunk size (§4.3.3 notes the
// size is configurable per type) and reports build time, tree shape and
// dedup effectiveness for a versioned workload.
func RunAblationChunkSize(w io.Writer, scale Scale) error {
	size := scale.pick(1<<20, 8<<20)
	versions := 10
	fmt.Fprintln(w, "Ablation: expected chunk size sweep (10 versions, small edits)")
	t := newTable(w, 10, 12, 10, 14, 14)
	t.row("ChunkKB", "BuildTime", "Leaves", "StoreBytes", "vs-naive")

	for _, q := range []uint{10, 11, 12, 13, 14} {
		cfg := postree.Config{LeafQ: q, IndexR: 6}
		s := store.NewMemStore()
		data := payload(size, 33)
		t0 := time.Now()
		b := postree.NewBuilder(s, cfg, postree.KindBlob)
		b.AppendBytes(data)
		tree, err := b.Finish()
		if err != nil {
			return err
		}
		build := time.Since(t0)
		st, _ := tree.TreeStats()
		for v := 0; v < versions; v++ {
			tree, err = tree.SpliceBytes(uint64(v*1000+500), 8, []byte(fmt.Sprintf("%08d", v)))
			if err != nil {
				return err
			}
		}
		naive := int64(size) * int64(versions+1)
		t.row(1<<(q-10), fmt.Sprintf("%.1fms", ms(build)), st.Leaves,
			s.Stats().Bytes, fmt.Sprintf("%.1f%%", 100*float64(s.Stats().Bytes)/float64(naive)))
	}
	return nil
}

// RunAblationHash compares SHA-256 (tamper-evident cids) against a
// non-cryptographic FNV digest, quantifying what the security property
// costs on the write path.
func RunAblationHash(w io.Writer, scale Scale) error {
	size := scale.pick(8<<20, 64<<20)
	data := payload(size, 35)
	fmt.Fprintln(w, "Ablation: content-hash cost (the price of tamper evidence)")
	t := newTable(w, 12, 14, 14)
	t.row("Hash", "Time", "MB/s")

	t0 := time.Now()
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		sha256.Sum256(data[off:end])
	}
	d := time.Since(t0)
	t.row("SHA-256", fmt.Sprintf("%.1fms", ms(d)), fmt.Sprintf("%.0f", float64(size)/(1<<20)/d.Seconds()))

	t0 = time.Now()
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		h := fnv.New64a()
		h.Write(data[off:end])
		h.Sum64()
	}
	d = time.Since(t0)
	t.row("FNV-64a", fmt.Sprintf("%.1fms", ms(d)), fmt.Sprintf("%.0f", float64(size)/(1<<20)/d.Seconds()))
	fmt.Fprintln(w, "note: FNV would forfeit tamper evidence and dedup safety; shown for cost only")
	return nil
}

// RunAblationIndexPattern quantifies §4.3.3's claim that detecting
// index-node boundaries from child cids (P') is far cheaper than
// running the rolling hash (P) over serialized index entries.
func RunAblationIndexPattern(w io.Writer, scale Scale) error {
	elems := scale.pick(200_000, 2_000_000)
	fmt.Fprintln(w, "Ablation: index-node boundary detection, cid pattern P' vs rolling hash P")
	t := newTable(w, 16, 14)
	t.row("Detector", "Time")

	// Build a large map once; its construction uses P' internally.
	s := store.NewMemStore()
	cfg := postree.DefaultConfig()
	b := postree.NewBuilder(s, cfg, postree.KindMap)
	for i := 0; i < elems; i++ {
		b.Append(postree.EncodeMapElem([]byte(fmt.Sprintf("key-%09d", i)), []byte("value-xxxxxxxx")))
	}
	t0 := time.Now()
	tree, err := b.Finish()
	if err != nil {
		return err
	}
	build := time.Since(t0)
	st, _ := tree.TreeStats()

	// The alternative: run the rolling hash over every leaf payload
	// again, as P-over-entries would.
	t0 = time.Now()
	it := tree.Leaves()
	var cuts []int
	for it.Next() {
		cuts = rollsum.ScanBoundaries(cfg.LeafQ, 8<<cfg.LeafQ, it.Payload(), cuts[:0])
	}
	rollCost := time.Since(t0)
	t.row("P' (cid bits)", fmt.Sprintf("%.1fms (whole build, %d nodes)", ms(build), st.Leaves+st.IndexNodes))
	t.row("P (rolling)", fmt.Sprintf("+%.1fms extra rolling-hash pass", ms(rollCost)))
	return nil
}
