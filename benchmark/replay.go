package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"time"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/chunksync"
	"forkbase/internal/core"
	"forkbase/internal/merge"
	"forkbase/internal/postree"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// Layer replay (method B): one typical user value of the workload
// driven through each layer's exported functions in isolation.

// replay carries what the layer measurements share.
type replay struct {
	ctx     context.Context
	d       time.Duration // time budget per measurement
	dir     string        // scratch directory for the file-backed layers
	payload []byte
	cfg     postree.Config
	rng     *rand.Rand
	text    []byte // 1 MiB of page text
	eng     *core.Engine

	m      map[string]float64
	allocs map[string]float64 // layer -> allocations per call, for the layer table
}

// timeIt calls fn repeatedly for about d and returns the mean time and
// heap allocations per call. Nothing else runs in the process while
// the replay does, so the process-wide allocation count is fn's.
func timeIt(d time.Duration, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for batch := 1; time.Since(start) < d; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func mbPerS(bytes int, ns float64) float64 { return float64(bytes) / ns * 1e9 / (1 << 20) }

// replayLayers runs every layer's measurement and returns the per-layer
// numbers and, where measured, allocations per call by layer.
func replayLayers(ctx context.Context, seed int64, payload []byte, dir string, d time.Duration) (*replay, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 90)))
	r := &replay{
		ctx: ctx, d: d, dir: dir, payload: payload,
		cfg: postree.DefaultConfig(), rng: rng, text: fastText(rng, 1<<20),
		m: make(map[string]float64), allocs: make(map[string]float64),
	}
	r.eng = core.NewEngine(store.NewMemStore(), r.cfg)
	for _, step := range []struct {
		layer string
		run   func() error
	}{
		{"core and wire", r.coreAndWire},
		{"serve", r.loopback},
		{"branch", r.branchAndJournal},
		{"rollsum and chunk", r.chunking},
		{"postree blob", r.blobTrees},
		{"postree map and merge", r.mapTrees},
		{"store", r.chunkStore},
	} {
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", step.layer, err)
		}
	}
	return r, nil
}

// coreAndWire: engine put and get over an in-memory store, then the
// same object as a Put request and a Get response, framed and parsed.
func (r *replay) coreAndWire() error {
	key := []byte("replay/key")
	// The value as a client would put it: small payloads are primitive
	// Strings, large ones chunked Blobs.
	var val types.Value = types.String(r.payload)
	if len(r.payload) > 4<<10 {
		val = types.NewBlob(r.payload)
	}
	var err error
	ns, a := timeIt(r.d, func() {
		if _, perr := r.eng.Put(key, branch.DefaultBranch, val, nil); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	r.m["core.put_ns"], r.m["core.allocs_per_put"], r.allocs["core"] = ns, a, a
	obj, err := r.eng.Get(key, branch.DefaultBranch)
	if err != nil {
		return err
	}
	r.m["core.get_ns"], _ = timeIt(r.d, func() { r.eng.Get(key, branch.DefaultBranch) })

	// A chunked value never crosses the wire whole — chunk sync ships it
	// a chunk at a time — so the request carries one chunk's worth.
	wireVal := types.String(r.payload)
	if len(wireVal) > 4<<10 {
		wireVal = wireVal[:4<<10]
	}
	var req, resp []byte
	buf := wire.GetFrameBuf()
	encNs, encAllocs := timeIt(r.d, func() {
		e := wire.EncWith(buf)
		wire.EncodeCallOptions(&e, wire.CallOptions{})
		e.Str(string(key))
		if eerr := wire.EncodeValue(&e, wireVal); eerr != nil {
			err = eerr
		}
		req = wire.AppendFrame(req[:0], 7, wire.OpPut, e.Bytes())
		e = wire.EncWith(e.Bytes())
		e.U8(0) // status: ok
		wire.EncodeFObject(&e, obj)
		resp = wire.AppendFrame(resp[:0], 7, wire.OpGet, e.Bytes())
		buf = e.Bytes()
	})
	if err != nil {
		return err
	}
	var rd bytes.Reader
	var scratch []byte
	decNs, decAllocs := timeIt(r.d, func() {
		rd.Reset(req)
		_, _, body, sb, rerr := wire.ReadFrameInto(&rd, wire.DefaultMaxFrame, scratch)
		scratch = sb
		dec := wire.NewDec(body)
		wire.DecodeCallOptions(dec)
		dec.Str()
		if _, derr := wire.DecodeValueRef(dec); rerr != nil || derr != nil {
			err = fmt.Errorf("request: %v %v", rerr, derr)
		}
		rd.Reset(resp)
		_, _, body, sb, rerr = wire.ReadFrameInto(&rd, wire.DefaultMaxFrame, scratch)
		scratch = sb
		dec = wire.NewDec(body)
		dec.U8()
		if _, derr := wire.DecodeFObject(dec); rerr != nil || derr != nil {
			err = fmt.Errorf("response: %v %v", rerr, derr)
		}
	})
	r.m["wire.encode_ns"], r.m["wire.decode_ns"] = encNs, decNs
	r.m["wire.allocs_per_roundtrip"], r.allocs["wire"] = encAllocs+decAllocs, encAllocs+decAllocs
	return err
}

// loopback measures a bare frame echo over loopback TCP: the socket
// and scheduler cost no request can go below.
func (r *replay) loopback() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var scratch, out []byte
		for {
			id, op, body, sb, err := wire.ReadFrameInto(c, wire.DefaultMaxFrame, scratch)
			if err != nil {
				return
			}
			scratch = sb
			out = wire.AppendFrame(out[:0], id, op, body)
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-done
		return err
	}
	frame := wire.AppendFrame(nil, 1, wire.OpGet, make([]byte, 32))
	var scratch []byte
	r.m["serve.loopback_rtt_ns"], _ = timeIt(r.d, func() {
		if _, werr := c.Write(frame); werr != nil {
			err = werr
			return
		}
		_, _, _, sb, rerr := wire.ReadFrameInto(c, wire.DefaultMaxFrame, scratch)
		scratch = sb
		if rerr != nil {
			err = rerr
		}
	})
	c.Close()
	<-done
	return err
}

// branchAndJournal: a head update in the table, and one journaled.
func (r *replay) branchAndJournal() error {
	key := []byte("replay/key")
	uid := chunk.New(chunk.TypeMeta, []byte("replay")).ID()
	tbl := branch.NewTable()
	r.m["branch.update_ns"], _ = timeIt(r.d, func() { tbl.UpdateTagged(branch.DefaultBranch, uid, nil) })
	j, err := branch.OpenJournal(filepath.Join(r.dir, "journal"), branch.JournalOptions{SnapshotEvery: -1})
	if err != nil {
		return err
	}
	records := 0
	r.m["branch.journal_record_ns"], _ = timeIt(r.d, func() {
		records++
		if rerr := j.Record(branch.Op{Kind: branch.OpUpdateTagged, Key: key, Branch: branch.DefaultBranch, UID: uid}); rerr != nil {
			err = rerr
		}
	})
	r.m["branch.journal_bytes_per_write"] = float64(j.Stats().WALBytes) / float64(records)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return err
}

// chunking: boundary scan and hashing of page text.
func (r *replay) chunking() error {
	var cuts []int
	ns, _ := timeIt(r.d, func() { cuts = rollsum.ScanBoundaries(r.cfg.LeafQ, 8<<r.cfg.LeafQ, r.text, cuts[:0]) })
	r.m["rollsum.scan_mb_per_s"] = mbPerS(len(r.text), ns)
	ns, _ = timeIt(r.d, func() { chunk.New(chunk.TypeBlob, r.text[:4<<10]) })
	r.m["chunk.new_ns_per_kib"] = ns / 4
	return nil
}

func buildBlob(s store.Store, cfg postree.Config, data []byte) (*postree.Tree, error) {
	b := postree.NewBuilder(s, cfg, postree.KindBlob)
	b.AppendBytes(data)
	return b.Finish()
}

// blobTrees: bulk build and whole read of 1 MiB, 128-byte splices of a
// 256 KiB page with the chunks each writes, and the fetch round trips
// of one cold chunk-sync pull of that page.
func (r *replay) blobTrees() error {
	var err error
	ns, _ := timeIt(r.d, func() {
		if _, berr := buildBlob(store.NewMemStore(), r.cfg, r.text); berr != nil {
			err = berr
		}
	})
	r.m["postree.build_mb_per_s"] = mbPerS(len(r.text), ns)
	pageStore := store.NewMemStore()
	page, perr := buildBlob(pageStore, r.cfg, r.text[:256<<10])
	whole, werr := buildBlob(pageStore, r.cfg, r.text)
	if err != nil || perr != nil || werr != nil {
		return fmt.Errorf("build: %v %v %v", err, perr, werr)
	}
	ns, _ = timeIt(r.d, func() { whole.Bytes() })
	r.m["postree.read_mb_per_s"] = mbPerS(len(r.text), ns)

	rounds := 0
	fetch := func(_ context.Context, ids []chunk.ID) ([][]byte, error) {
		rounds++
		out := make([][]byte, len(ids))
		for i, id := range ids {
			c, err := pageStore.Get(id)
			if err != nil {
				return nil, err
			}
			out[i] = c.Bytes()
		}
		return out, nil
	}
	if _, err := chunksync.Pull(r.ctx, store.NewMemStore(), fetch, page.Root(), page.Height(), chunksync.PullConfig{}); err != nil {
		return fmt.Errorf("pull: %w", err)
	}
	r.m["chunksync.rounds_per_pull"] = float64(rounds)

	edit := r.text[len(r.text)-128:]
	before := pageStore.Stats()
	splices := 0
	ns, a := timeIt(r.d, func() {
		splices++
		off := uint64(r.rng.Intn(256<<10 - 128))
		if _, serr := page.SpliceBytes(off, 128, edit); serr != nil {
			err = serr
		}
	})
	r.m["postree.splice_us"], r.allocs["postree"] = ns/1e3, a
	r.m["postree.chunks_written_per_edit"] = float64(pageStore.Stats().Puts-before.Puts) / float64(splices)
	return err
}

// mapTrees: a 10 000-entry Map of the payload's shape (values capped
// at 200 bytes): apply 100 scattered sets; diff against a copy with a
// 1 % contiguous slice rewritten; three-way merge of two such copies
// with disjoint slices.
func (r *replay) mapTrees() error {
	const entries = 10_000
	vlen := len(r.payload)
	if vlen > 200 {
		vlen = 200
	}
	mapKey := func(i int) []byte { return []byte(fmt.Sprintf("pk-%09d", i)) }
	mapVal := func(i, gen int) []byte {
		off := (i*131 + gen*7919) % (len(r.text) - vlen)
		return r.text[off : off+vlen]
	}
	slice := func(lo, gen int) []postree.KV {
		kv := make([]postree.KV, entries/100)
		for i := range kv {
			kv[i] = postree.KV{Key: mapKey(lo + i), Value: mapVal(lo+i, gen)}
		}
		return kv
	}
	tm := types.NewMap()
	for i := 0; i < entries; i++ {
		if err := tm.Set(mapKey(i), mapVal(i, 0)); err != nil {
			return err
		}
	}
	name := []byte("replay/map")
	if _, err := r.eng.Put(name, branch.DefaultBranch, tm, nil); err != nil {
		return err
	}
	base, err := r.eng.Get(name, branch.DefaultBranch)
	if err != nil {
		return err
	}
	baseTree := types.TreeOf(tm)

	scattered := make([]postree.KV, 100)
	for i := range scattered {
		scattered[i] = postree.KV{Key: mapKey(i * (entries / 100)), Value: mapVal(i, 1)}
	}
	ns, _ := timeIt(r.d, func() {
		if _, aerr := baseTree.MapApply(scattered, nil); aerr != nil {
			err = aerr
		}
	})
	r.m["postree.map_apply_us"] = ns / 1e3

	sideTree, serr := baseTree.MapApply(slice(1000, 2), nil)
	if err != nil || serr != nil {
		return fmt.Errorf("map apply: %v %v", err, serr)
	}
	ns, _ = timeIt(r.d, func() {
		if _, derr := postree.DiffSorted(r.ctx, baseTree, sideTree); derr != nil {
			err = derr
		}
	})
	r.m["postree.diff_ms"] = ns / 1e6

	// side forks master and rewrites one slice on the fork.
	side := func(fork string, lo, gen int) (*types.FObject, error) {
		if err := r.eng.Fork(name, branch.DefaultBranch, fork); err != nil {
			return nil, err
		}
		o, err := r.eng.Get(name, fork)
		if err != nil {
			return nil, err
		}
		v, err := r.eng.Value(o)
		if err != nil {
			return nil, err
		}
		if err := v.(*types.Map).Apply(slice(lo, gen), nil); err != nil {
			return nil, err
		}
		if _, err := r.eng.Put(name, fork, v, nil); err != nil {
			return nil, err
		}
		return r.eng.Get(name, fork)
	}
	oa, aerr := side("a", 2000, 3)
	ob, berr := side("b", 6000, 4)
	if err != nil || aerr != nil || berr != nil {
		return fmt.Errorf("merge sides: %v %v %v", err, aerr, berr)
	}
	ns, a := timeIt(r.d, func() {
		if _, conflicts, merr := merge.ThreeWay(r.ctx, r.eng.Store(), r.cfg, base, oa, ob, nil); merr != nil || len(conflicts) != 0 {
			err = fmt.Errorf("three-way: %v, %d conflicts", merr, len(conflicts))
		}
	})
	r.m["merge.threeway_ms"], r.allocs["merge"] = ns/1e6, a
	return err
}

// chunkStore: first-time puts and re-reads of 4 KiB chunks on the stack
// the file-backed workloads run on, a FileStore under a cache.
func (r *replay) chunkStore() error {
	fs, err := store.OpenFileStore(filepath.Join(r.dir, "store"), store.FileStoreOptions{})
	if err != nil {
		return err
	}
	cached := store.NewCache(fs, 16<<20)
	chunks := make([]*chunk.Chunk, 2048)
	for i := range chunks {
		chunks[i] = chunk.New(chunk.TypeBlob, append([]byte(nil), r.text[i*256:i*256+4<<10]...))
	}
	start := time.Now()
	for _, c := range chunks {
		if _, perr := cached.Put(c); perr != nil {
			err = perr
		}
	}
	r.m["store.put_ns"] = float64(time.Since(start)) / float64(len(chunks))
	start = time.Now()
	for _, c := range chunks {
		if _, gerr := cached.Get(c.ID()); gerr != nil {
			err = gerr
		}
	}
	r.m["store.get_ns"] = float64(time.Since(start)) / float64(len(chunks))
	if cerr := cached.Close(); err == nil {
		err = cerr
	}
	return err
}
