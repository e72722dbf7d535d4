package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"forkbase"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// kv-small-remote: two closed-loop clients, one connection each, small
// String values against an in-memory server. Per-request overhead is
// all there is to measure.

type kvConfig struct {
	keys       int // preloaded keys, half owned by each client
	valueBytes int
	streamLen  int // ops generated per client; the stream wraps if a run outlasts it
	trackDepth int // versions a history scan asks for
}

func kvSizes(smoke bool) kvConfig {
	if smoke {
		return kvConfig{keys: 2_000, valueBytes: 100, streamLen: 1 << 12, trackDepth: 8}
	}
	return kvConfig{keys: 100_000, valueBytes: 100, streamLen: 1 << 20, trackDepth: 8}
}

const (
	kvGet = iota
	kvPut
	kvTrack
)

type kvOp struct {
	key  uint32
	kind uint8
}

type kvWorkload struct {
	cfg     kvConfig
	pool    []byte
	keys    []string
	ver     []uint32 // model: latest version written per key; a key has one owner, so no lock
	streams [remoteClients][]kvOp
	pos     [remoteClients]int
	scratch [remoteClients][]byte

	remoteRig
}

// genKVStream is the whole of the workload's randomness: Zipf-skewed
// keys over the client's own half of the key space (the skew
// workload.YCSB uses), 49.5 % Get, 49.5 % Put, 1 % history scan.
func genKVStream(seed int64, client int, cfg kvConfig) []kvOp {
	rng := rand.New(rand.NewSource(subSeed(seed, 10+client)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(cfg.keys/remoteClients-1))
	ops := make([]kvOp, cfg.streamLen)
	for i := range ops {
		ops[i].key = uint32(zipf.Uint64())*remoteClients + uint32(client)
		switch r := rng.Float64(); {
		case r < 0.01:
			ops[i].kind = kvTrack
		case r < 0.505:
			ops[i].kind = kvGet
		default:
			ops[i].kind = kvPut
		}
	}
	return ops
}

func (w *kvWorkload) clients() int    { return remoteClients }
func (w *kvWorkload) payload() []byte { return w.value(make([]byte, w.cfg.valueBytes), 0, 0) }

func (w *kvWorkload) value(dst []byte, key uint32, ver uint32) []byte {
	fillValue(dst, w.pool, uint64(key), uint64(ver))
	return dst
}

func (w *kvWorkload) setup(ctx context.Context, env *env) error {
	w.cfg = kvSizes(env.smoke)
	w.pool = fastText(rand.New(rand.NewSource(subSeed(env.seed, 1))), 1<<16)
	for c := 0; c < remoteClients; c++ {
		w.streams[c] = genKVStream(env.seed, c, w.cfg)
		w.scratch[c] = make([]byte, w.cfg.valueBytes)
		w.pos[c] = 0
	}
	if env.tr != nil {
		// Same stack as Open(): MemStore, default tree config, no
		// cache, no ACL — with the span recorder where the MemStore is.
		w.db = forkbase.NewDBOn(spanStore{store.NewMemStore(), env.tr}, postree.DefaultConfig())
	} else {
		w.db = forkbase.Open()
	}
	w.keys = make([]string, w.cfg.keys)
	w.ver = make([]uint32, w.cfg.keys)
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("user%08d", i)
		if _, err := w.db.Put(ctx, w.keys[i], forkbase.String(w.value(w.scratch[0], uint32(i), 0))); err != nil {
			return fmt.Errorf("preload %s: %w", w.keys[i], err)
		}
	}
	return w.serve(forkbase.RemoteConfig{Conns: 1})
}

func (w *kvWorkload) step(ctx context.Context, c int, rec *recorder) {
	op := w.streams[c][w.pos[c]%len(w.streams[c])]
	w.pos[c]++
	key, rs, n := w.keys[op.key], w.rs[c], int64(w.cfg.valueBytes)
	switch op.kind {
	case kvGet:
		t := rec.begin(classRead, "Get")
		o, err := rs.Get(ctx, key)
		rec.lap(&t)
		ok := err == nil && bytes.Equal(o.Data, w.value(w.scratch[c], op.key, w.ver[op.key]))
		if !ok {
			rec.fail("kv Get %s: err=%v, value differs from version %d", key, err, w.ver[op.key])
		}
		rec.end(t, ok, n, 0)
	case kvPut:
		next := w.ver[op.key] + 1
		v := forkbase.String(w.value(w.scratch[c], op.key, next))
		t := rec.begin(classWrite, "Put")
		_, err := rs.Put(ctx, key, v)
		rec.lap(&t)
		if err == nil {
			w.ver[op.key] = next
		} else {
			rec.fail("kv Put %s: %v", key, err)
		}
		rec.end(t, err == nil, n, n)
	case kvTrack:
		t := rec.begin(classScan, "Track")
		hist, err := rs.Track(ctx, key, 0, w.cfg.trackDepth-1)
		rec.lap(&t)
		want := int(w.ver[op.key]) + 1
		if want > w.cfg.trackDepth {
			want = w.cfg.trackDepth
		}
		ok := err == nil && len(hist) == want
		for i := 0; ok && i < len(hist); i++ {
			ok = bytes.Equal(hist[i].Data, w.value(w.scratch[c], op.key, w.ver[op.key]-uint32(i)))
		}
		if !ok {
			rec.fail("kv Track %s: err=%v, got %d versions, want %d newest-first from version %d", key, err, len(hist), want, w.ver[op.key])
		}
		rec.end(t, ok, n*int64(len(hist)), 0)
	}
}

// verify reads every key once more, embedded, and compares it with the
// last value the model saw written.
func (w *kvWorkload) verify(ctx context.Context, rec *recorder) {
	for i, key := range w.keys {
		o, err := w.db.Get(ctx, key)
		rec.check(err == nil && bytes.Equal(o.Data, w.value(w.scratch[0], uint32(i), w.ver[i])),
			"kv final %s: err=%v, not at version %d", key, err, w.ver[i])
	}
}

// remoteRig is the serving stack both remote workloads run against:
// an embedded DB behind an in-process forkbase.Server on a loopback
// port, and one RemoteStore (one connection) per client.
type remoteRig struct {
	db   *forkbase.DB
	srv  *forkbase.Server
	ln   net.Listener
	done chan struct{} // closed when Serve has returned
	rs   [remoteClients]*forkbase.RemoteStore
}

const remoteClients = 2

// serve starts the server over r.db and dials the clients.
func (r *remoteRig) serve(cfg forkbase.RemoteConfig) error {
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	r.srv, r.done = forkbase.NewServer(r.db, forkbase.ServerOptions{}), make(chan struct{})
	go func() {
		defer close(r.done)
		r.srv.Serve(r.ln) // returns ErrServerClosed once close has run
	}()
	for c := range r.rs {
		if r.rs[c], err = forkbase.Dial(r.ln.Addr().String(), cfg); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
	}
	return nil
}

func (r *remoteRig) counters() counters {
	c := counters{store: r.db.Stats(), server: r.srv.MetricsSnapshot(), db: r.db.MetricsSnapshot()}
	for _, rs := range r.rs {
		c.client = append(c.client, rs.MetricsSnapshot()...)
	}
	return c
}

// close closes the clients, drains the server, waits for its accept
// loop to return and closes the store. Safe after a failed set-up.
func (r *remoteRig) close() error {
	for _, rs := range r.rs {
		if rs != nil {
			rs.Close()
		}
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.srv.Shutdown(ctx); err != nil {
			r.srv.Close()
		}
		r.ln.Close() // a no-op unless Shutdown ran before Serve took the listener
		<-r.done
	}
	if r.db != nil {
		return r.db.Close()
	}
	return nil
}
