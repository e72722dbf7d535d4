package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"

	"forkbase"
	"forkbase/internal/workload"
)

// blob-edit-remote: the wiki case over the wire with chunk sync, on a
// corpus several times larger than the server's chunk cache and each
// client's. Payload work — chunking, POS-tree splice and read, have/
// want/send negotiation, FileStore and cache misses — dominates.

type blobConfig struct {
	pages       int // half owned by each client
	pageBytes   int
	editBytes   int
	serverCache int64
	clientCache int64
	streamLen   int // ops generated per client
	maxBack     int // deepest historical read
}

func blobSizes(smoke bool) blobConfig {
	if smoke {
		return blobConfig{pages: 8, pageBytes: 32 << 10, editBytes: 128, serverCache: 64 << 10, clientCache: 32 << 10, streamLen: 1 << 9, maxBack: 8}
	}
	// 64 MiB corpus: 4x the server cache, 8x each client cache.
	return blobConfig{pages: 256, pageBytes: 256 << 10, editBytes: 128, serverCache: 16 << 20, clientCache: 8 << 20, streamLen: 1 << 16, maxBack: 8}
}

const (
	blobEdit = iota
	blobHead
	blobHist
)

type blobOp struct {
	page    int
	kind    uint8
	off     int
	inPlace bool
	content []byte
	back    int // historical reads: versions behind the head
}

// blobPage is the model of one page: its current bytes and the
// fingerprint of every version saved, oldest first.
type blobPage struct {
	key  string
	cur  []byte
	hist []uint64
}

type blobWorkload struct {
	cfg     blobConfig
	pages   []blobPage // a page has one owner, so no lock
	streams [remoteClients][]blobOp
	pos     [remoteClients]int

	remoteRig
	store [remoteClients]forkbase.Store // rs, behind the span recorder on a traced pass
}

// genBlobStream draws pages and edits from workload.WikiTrace (page
// Zipf, 90 % of edits in place) over the client's own half of the
// corpus, and the mix — 60 % edit-save, 30 % head read, 10 %
// historical read — from the same seed. Offsets are drawn for the
// initial page size; pages only grow, so they stay in bounds.
func genBlobStream(seed int64, client int, cfg blobConfig) []blobOp {
	own := cfg.pages / remoteClients
	trace := workload.NewWikiTrace(subSeed(seed, 20+client), own, cfg.editBytes, 0.9, 1.1)
	rng := rand.New(rand.NewSource(subSeed(seed, 30+client)))
	ops := make([]blobOp, cfg.streamLen)
	for i := range ops {
		e := trace.Next(cfg.pageBytes)
		idx, _ := strconv.Atoi(e.Page[len("page-"):])
		op := blobOp{page: idx*remoteClients + client, off: e.Offset, inPlace: e.InPlace, content: e.Content}
		switch r := rng.Float64(); {
		case r < 0.6:
			op.kind = blobEdit
		case r < 0.9:
			op.kind = blobHead
		default:
			op.kind = blobHist
			op.back = 1 + rng.Intn(cfg.maxBack)
		}
		ops[i] = op
	}
	return ops
}

func (w *blobWorkload) clients() int    { return remoteClients }
func (w *blobWorkload) payload() []byte { return append([]byte(nil), w.pages[0].cur...) }

func (w *blobWorkload) setup(ctx context.Context, env *env) error {
	w.cfg = blobSizes(env.smoke)
	for c := 0; c < remoteClients; c++ {
		w.streams[c] = genBlobStream(env.seed, c, w.cfg)
		w.pos[c] = 0
	}
	var err error
	if w.db, err = forkbase.OpenPath(filepath.Join(env.dir, "server"), forkbase.WithCacheBytes(w.cfg.serverCache)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(env.seed, 2)))
	w.pages = make([]blobPage, w.cfg.pages)
	for i := range w.pages {
		p := &w.pages[i]
		p.key = fmt.Sprintf("page-%05d", i)
		p.cur = fastText(rng, w.cfg.pageBytes)
		if _, err := w.db.Put(ctx, p.key, forkbase.NewBlob(p.cur)); err != nil {
			return fmt.Errorf("load %s: %w", p.key, err)
		}
		p.hist = append(p.hist, sum(p.cur))
	}
	if err := w.serve(forkbase.RemoteConfig{Conns: 1, ChunkSync: true, ChunkCacheBytes: w.cfg.clientCache}); err != nil {
		return err
	}
	for c := range w.rs {
		w.store[c] = w.rs[c]
		if env.tr != nil {
			w.store[c] = spanAPI{Store: w.rs[c], tr: env.tr, layer: "remote"}
		}
	}
	return nil
}

// readBlob fetches a version's value and materialises its bytes.
func readBlob(ctx context.Context, st forkbase.Store, rec *recorder, key string, o *forkbase.FObject) ([]byte, error) {
	v, err := st.Value(ctx, key, o)
	if err != nil {
		return nil, err
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		return nil, err
	}
	defer rec.child("postree", "Blob.Bytes")()
	return b.Bytes()
}

func (w *blobWorkload) step(ctx context.Context, c int, rec *recorder) {
	op := w.streams[c][w.pos[c]%len(w.streams[c])]
	w.pos[c]++
	p, st := &w.pages[op.page], w.store[c]
	switch op.kind {
	case blobEdit:
		del := 0
		if op.inPlace {
			del = len(op.content)
		}
		t := rec.begin(classWrite, "edit-save")
		err := func() error {
			o, err := st.Get(ctx, p.key)
			if err != nil {
				return err
			}
			v, err := st.Value(ctx, p.key, o)
			if err != nil {
				return err
			}
			b, err := forkbase.AsBlob(v)
			if err != nil {
				return err
			}
			end := rec.child("postree", "Blob.Splice")
			err = b.Splice(uint64(op.off), uint64(del), op.content)
			end()
			if err != nil {
				return err
			}
			_, err = st.Put(ctx, p.key, b)
			return err
		}()
		rec.lap(&t)
		if err == nil {
			if del == 0 { // open a gap for the insertion
				p.cur = append(p.cur, op.content...)
				copy(p.cur[op.off+len(op.content):], p.cur[op.off:])
			}
			copy(p.cur[op.off:], op.content)
			p.hist = append(p.hist, sum(p.cur))
		} else {
			rec.fail("blob edit-save %s: %v", p.key, err)
		}
		rec.end(t, err == nil, int64(len(p.cur)), int64(len(p.cur)))
	case blobHead:
		t := rec.begin(classRead, "head-read")
		var data []byte
		o, err := st.Get(ctx, p.key)
		if err == nil {
			data, err = readBlob(ctx, st, rec, p.key, o)
		}
		rec.lap(&t)
		ok := err == nil && sum(data) == p.hist[len(p.hist)-1]
		if !ok {
			rec.fail("blob head read %s: err=%v, %d bytes do not match version %d", p.key, err, len(data), len(p.hist)-1)
		}
		rec.end(t, ok, int64(len(data)), 0)
	case blobHist:
		back := op.back
		if back > len(p.hist)-1 {
			back = len(p.hist) - 1
		}
		t := rec.begin(classScan, "historical-read")
		var data []byte
		hist, err := st.Track(ctx, p.key, back, back)
		if err == nil && len(hist) != 1 {
			err = fmt.Errorf("Track returned %d versions", len(hist))
		}
		if err == nil {
			data, err = readBlob(ctx, st, rec, p.key, hist[0])
		}
		rec.lap(&t)
		ok := err == nil && sum(data) == p.hist[len(p.hist)-1-back]
		if !ok {
			rec.fail("blob historical read %s -%d: err=%v, %d bytes do not match", p.key, back, err, len(data))
		}
		rec.end(t, ok, int64(len(data)), 0)
	}
}

// verify reads every page's head, embedded, and compares it with the
// model's current bytes.
func (w *blobWorkload) verify(ctx context.Context, rec *recorder) {
	for i := range w.pages {
		p := &w.pages[i]
		var data []byte
		o, err := w.db.Get(ctx, p.key)
		if err == nil {
			data, err = readBlob(ctx, w.db, rec, p.key, o)
		}
		rec.check(err == nil && sum(data) == sum(p.cur), "blob final %s: err=%v, %d bytes, model has %d", p.key, err, len(data), len(p.cur))
	}
}
