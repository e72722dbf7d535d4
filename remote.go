package forkbase

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/branch"
	"forkbase/internal/chunk"
	"forkbase/internal/chunksync"
	"forkbase/internal/obs"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// ErrRemoteClosed is returned by calls on a RemoteStore after Close.
var ErrRemoteClosed = errors.New("forkbase: remote store is closed")

// RemoteConfig configures Dial. The frame cap is the server's
// (ServerOptions.MaxFrame), which each connection's Hello carries: a
// request larger than it fails alone, before any of its bytes are sent.
type RemoteConfig struct {
	// Conns is the connection-pool size; requests round-robin across
	// it. Each connection multiplexes any number of in-flight
	// requests, so 1 (the default) is already fully pipelined — more
	// connections add TCP-level parallelism for large transfers.
	Conns int
	// AuthToken is presented in each connection's Hello; it must match
	// the server's ServerOptions.AuthToken.
	AuthToken string
	// DialTimeout bounds each TCP connect; 0 means 10s.
	DialTimeout time.Duration
	// ChunkSync opts into chunk-granular transfer when the server
	// advertises FeatureChunkSync: chunkable values are read by
	// fetching only the POS-Tree chunks missing from a local chunk
	// cache, and written by uploading only the chunks the server
	// reports missing. Servers without the feature (or proxy backends)
	// fall back to full-ship transparently. Implied by ChunkCacheDir.
	ChunkSync bool
	// ChunkCacheDir, when non-empty, is where the client chunk store
	// keeps its log, so chunks survive process restarts — a fresh
	// client re-reading a barely-changed object moves only the delta.
	// Empty means a private directory under os.TempDir that Close (or
	// a failed Dial) removes: the store is on disk either way, and only
	// its lifetime differs. A process killed before Close leaves that
	// directory behind; on unix systems it holds a lock file the dead
	// process no longer locks, and the next Dial that makes a private
	// directory removes it.
	ChunkCacheDir string
	// ChunkCacheBytes is the budget of the in-memory tier, a CLOCK ring
	// over an 8-byte cid index, in front of the client chunk store; 0
	// means 64 MiB. The budget charges each entry its bytes plus a fixed
	// per-entry cost (about 128 bytes), and under the same pressure a
	// small chunk outlives a leaf-sized one. The store behind it is an on-disk log that keeps
	// every chunk it is handed for the life of the RemoteStore (for
	// good, under ChunkCacheDir) and holds only its index in memory, so
	// resident chunk bytes stay within this budget however much history
	// the client reads and writes.
	ChunkCacheBytes int64
}

// RemoteStore is the network Store implementation: the same client
// API as the embedded DB and the ClusterClient, executed by a
// forkserved daemon on the other end of a TCP connection. Because it
// satisfies Store, application code — and the whole conformance suite
// — runs against it unchanged.
//
// Concurrency: safe for concurrent use. Requests are multiplexed over
// a small connection pool; each call is one request frame and one
// response frame, matched by request id, so slow calls never block
// fast ones behind them (pipelining). Cancelling a call's context
// aborts it locally at once and sends a best-effort cancel to the
// server, which stops the request's server-side work (history walks
// observe it mid-walk).
//
// Values: without chunk sync, chunkable values fetched through Value
// come back staged (fully materialized, detached from any store). With
// it, they come back as handles over the client's chunk store that
// fetch what their reads touch: such a read may use the network within
// the Value call's ctx, as that call's user, for as long as the
// version stays reachable on the server (once it is collected, a read
// of a chunk not held locally fails with store.ErrNotFound, as it would
// embedded). Either way the value is ready to edit and Put back.
// Custom merge resolvers cannot cross the wire; the built-ins
// (ChooseA, ChooseB, AppendResolve, Aggregate) are translated by code.
//
// Versions are checked against the uids that name them: a Get with
// WithBase must return that version, and a Track answer must be a
// derivation chain, or the call fails with ErrCorrupt.
type RemoteStore struct {
	frontend // the Store methods, over rs itself

	addr string
	cfg  RemoteConfig

	reqID atomic.Uint64
	next  atomic.Uint64 // round-robin cursor over the pool

	// features and maxFrame are what the last Hello answered: chunk sync
	// engages only under its feature bit, and requests are sized by its cap.
	features atomic.Uint32
	maxFrame atomic.Uint32

	// local is the client-side chunk cache stack, a Cache over a
	// FileStore; nil unless chunk sync was requested. privateDir is the
	// FileStore's directory when Dial made it (no ChunkCacheDir), which
	// Close removes; privateLock holds the lock file that marks it as
	// live until then (lockChunkDir). treeCfg is the POS-Tree
	// configuration local trees are built with — DefaultConfig,
	// matching the server default, so client-built and server-built
	// trees chunk identically and deduplicate against each other.
	local       store.Store
	privateDir  string
	privateLock *os.File
	treeCfg     postree.Config

	// staged holds the ids of the chunks in local that this client
	// created itself — building a value, editing a fetched one — and
	// that the server has not yet acknowledged holding (a Send that
	// carried them returned, or a Have answered "present"). Everything
	// else in local arrived from the server, as part of a committed
	// version's tree, so a chunked Put takes the server to hold it,
	// subtree and all, and negotiates only what is staged. The server
	// may since have collected such a chunk; its commit then answers
	// store.ErrNotFound and the Put renegotiates the whole tree.
	stagedMu sync.Mutex
	staged   map[chunk.ID]struct{}

	// reg holds the client-side instruments (cm resolves into it once
	// at Dial); see Metrics and MetricsSnapshot.
	reg *obs.Registry
	cm  opMetrics

	mu     sync.Mutex
	conns  []*remoteConn // fixed-size pool; nil slots dial lazily
	closed bool
}

// Dial connects to a forkserved instance and returns its Store. The
// first connection is established (and authenticated) eagerly so a
// bad address or token fails here, not on the first call.
func Dial(addr string, cfg RemoteConfig) (*RemoteStore, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	rs := &RemoteStore{addr: addr, cfg: cfg, conns: make([]*remoteConn, cfg.Conns), treeCfg: postree.DefaultConfig()}
	rs.frontend = frontend{rs}
	rs.reg = obs.NewRegistry()
	rs.cm.init(rs.reg, "client")
	if cfg.ChunkSync || cfg.ChunkCacheDir != "" {
		cacheBytes := cfg.ChunkCacheBytes
		if cacheBytes <= 0 {
			cacheBytes = 64 << 20
		}
		dir := cfg.ChunkCacheDir
		if dir == "" {
			sweepChunkDirs()
			tmp, err := os.MkdirTemp("", privateDirPrefix)
			if err != nil {
				return nil, fmt.Errorf("forkbase: chunk cache: %w", err)
			}
			dir, rs.privateDir = tmp, tmp
			if rs.privateLock, err = lockChunkDir(tmp); err != nil {
				rs.removePrivateDir()
				return nil, fmt.Errorf("forkbase: chunk cache: %w", err)
			}
		}
		fs, err := store.OpenFileStore(dir, store.FileStoreOptions{})
		if err != nil {
			rs.removePrivateDir()
			return nil, fmt.Errorf("forkbase: chunk cache at %s: %w", dir, err)
		}
		rs.local = store.NewCache(fs, cacheBytes)
		rs.staged = make(map[chunk.ID]struct{})
	}
	if _, err := rs.conn(0); err != nil {
		rs.Close()
		return nil, err
	}
	return rs, nil
}

// Metrics returns the client-side instrument registry: per-op call
// counters and latency histograms plus wire byte counters, all scoped
// to this RemoteStore's connection pool.
func (rs *RemoteStore) Metrics() *obs.Registry { return rs.reg }

// MetricsSnapshot returns the client-side metrics, sorted by name then
// tags. For the server's view of the same traffic, see ServerStats.
func (rs *RemoteStore) MetricsSnapshot() []MetricSample { return rs.reg.Snapshot() }

// ServerStats fetches the server's live observability snapshot — per-op
// request counts and latency histograms, wire and chunksync byte
// counters, and (for embedded-DB backends) engine and store metrics.
func (rs *RemoteStore) ServerStats(ctx context.Context) ([]MetricSample, error) {
	samples, _, err := roundTrip(ctx, rs, wire.OpServerStats, callOpts{}, nil, func(d *wire.Dec) ([]MetricSample, error) {
		return wire.DecodeSamples(d), nil
	})
	return samples, err
}

// chunkSyncOn reports whether chunk-granular transfer is active: the
// client asked for it and the server's Hello advertised it.
func (rs *RemoteStore) chunkSyncOn() bool {
	return rs.local != nil && rs.features.Load()&wire.FeatureChunkSync != 0
}

// Close tears down the connection pool; in-flight calls fail with
// ErrRemoteClosed.
func (rs *RemoteStore) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	conns := append([]*remoteConn(nil), rs.conns...)
	rs.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.fail(ErrRemoteClosed)
		}
	}
	var err error
	if rs.local != nil {
		err = rs.local.Close()
	}
	if rerr := rs.removePrivateDir(); err == nil {
		err = rerr
	}
	return err
}

// privateDirPrefix names the chunk store directories Dial makes under
// os.TempDir(); chunkDirLock is the lock file in each that marks its
// owner live.
const (
	privateDirPrefix = "forkbase-chunks-"
	chunkDirLock     = "lock"
)

// removePrivateDir deletes the chunk store directory Dial created for
// this client, if it made one, and only then drops its lock; a
// ChunkCacheDir is the caller's and stays.
func (rs *RemoteStore) removePrivateDir() error {
	if rs.privateDir == "" {
		return nil
	}
	err := os.RemoveAll(rs.privateDir)
	if rs.privateLock != nil {
		rs.privateLock.Close()
	}
	if err != nil {
		return fmt.Errorf("forkbase: chunk cache: %w", err)
	}
	return nil
}

// conn returns the pool slot, dialing it (or re-dialing a dead one)
// on demand.
func (rs *RemoteStore) conn(slot uint64) (*remoteConn, error) {
	i := int(slot % uint64(len(rs.conns)))
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil, ErrRemoteClosed
	}
	if c := rs.conns[i]; c != nil && !c.isDead() {
		rs.mu.Unlock()
		return c, nil
	}
	rs.mu.Unlock()
	// Dial outside the lock; a racing caller may dial the same slot —
	// the loser's connection is closed again, which is harmless.
	c, err := rs.dial()
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		c.fail(ErrRemoteClosed)
		return nil, ErrRemoteClosed
	}
	if old := rs.conns[i]; old != nil && !old.isDead() {
		c.fail(ErrRemoteClosed)
		return old, nil
	}
	rs.conns[i] = c
	return c, nil
}

// dial opens and authenticates one connection, then starts its reader.
func (rs *RemoteStore) dial() (*remoteConn, error) {
	nc, err := net.DialTimeout("tcp", rs.addr, rs.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &remoteConn{
		c:       nc,
		br:      bufio.NewReaderSize(nc, connBufSize),
		pending: make(map[uint64]pendingCall),
		recv:    rs.cm.bytesIn,
	}
	// A write failure anywhere fails the whole connection: pending
	// calls get the error instead of hanging. The frame writer also
	// counts outbound bytes at the flush syscall — the one chokepoint
	// every frame passes through.
	c.fw = newFrameWriter(nc, rs.cm.bytesOut, func(err error) { c.fail(err) }, c.othersPending)
	// Hello is synchronous: the reader starts only once the handshake
	// frame has been consumed.
	start := time.Now()
	features, maxFrame, err := rs.hello(c)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("forkbase: dial %s: %w", rs.addr, err)
	}
	c.maxFrame = int(maxFrame)
	rs.features.Store(features)
	rs.maxFrame.Store(maxFrame)
	rs.cm.observe(wire.OpHello, time.Since(start), false)
	go c.readLoop()
	return c, nil
}

// hello sends the connection's Hello and reads the answer, under
// helloMaxFrame, for the server's feature mask and frame cap.
func (rs *RemoteStore) hello(c *remoteConn) (features, maxFrame uint32, err error) {
	var e wire.Enc
	e.U32(wire.ProtoVersion)
	e.Str(rs.cfg.AuthToken)
	id := rs.reqID.Add(1)
	if err := c.write(id, wire.OpHello, e.Bytes()); err != nil {
		return 0, 0, err
	}
	respID, op, payload, err := wire.ReadFrame(c.br, helloMaxFrame)
	if err != nil {
		return 0, 0, err
	}
	c.recv.Add(frameWireBytes + int64(len(payload)))
	if respID != id || op != wire.OpHello {
		return 0, 0, errors.New("out-of-order hello response")
	}
	r := decodeStatus(payload)
	if err := r.failure(); err != nil {
		return 0, 0, err
	}
	r.d.Str() // the banner
	features, maxFrame = r.d.U32(), r.d.U32()
	return features, maxFrame, r.d.Err()
}

// frameWireBytes is the fixed per-frame cost beyond the payload: the
// u32 length prefix plus reqID, op and crc.
const frameWireBytes = 4 + 8 + 1 + 4

// remoteConn is one pooled connection: a batching frame writer
// coalescing concurrent callers' frames into shared syscalls, and a
// pending map matching responses to waiting calls. maxFrame is the
// server's frame cap, from this connection's Hello.
type remoteConn struct {
	c        net.Conn
	br       *bufio.Reader
	fw       *frameWriter
	maxFrame int

	// recv points at the owning RemoteStore's inbound wire-byte
	// counter; the outbound twin lives inside fw, which counts at the
	// flush syscall.
	recv *obs.Counter

	mu      sync.Mutex
	pending map[uint64]pendingCall
	dead    bool
	err     error
}

// pendingCall is one registered in-flight request. Stream calls
// (streamed Want) receive every OpChunkWantPart frame on ch and stay
// registered until the final frame (any other op) or a connection
// failure; ordinary calls receive exactly one response.
type pendingCall struct {
	ch     chan remoteResp
	stream bool
}

type remoteResp struct {
	op      uint8
	payload []byte
	err     error
}

func (c *remoteConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// fail marks the connection dead and releases every waiting call.
func (c *remoteConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.err = err
	pending := c.pending
	c.pending = make(map[uint64]pendingCall)
	c.mu.Unlock()
	c.c.Close()
	for _, pc := range pending {
		pc.ch <- remoteResp{err: err}
	}
}

func (c *remoteConn) readLoop() {
	// Each response gets a buffer of its frame's exact size, never a
	// pooled one: decoders may alias the payload. hdr reads the prefix.
	hdr := make([]byte, 4)
	for {
		reqID, op, payload, _, err := wire.ReadFrameInto(c.br, c.maxFrame, hdr)
		if err != nil {
			c.fail(fmt.Errorf("forkbase: remote connection lost: %w", err))
			return
		}
		c.recv.Add(frameWireBytes + int64(len(payload)))
		c.mu.Lock()
		pc, ok := c.pending[reqID]
		// A stream call stays registered across its part frames; any
		// other op is its final frame. Ordinary calls unregister on
		// their single response.
		if ok && !(pc.stream && op == wire.OpChunkWantPart) {
			delete(c.pending, reqID)
		}
		c.mu.Unlock()
		if ok {
			pc.ch <- remoteResp{op: op, payload: payload}
		}
		// Unknown ids are responses to abandoned (cancelled) calls.
	}
}

// respChanPool recycles the one-shot response channels of call —
// otherwise every request allocates one. A channel may only return to
// the pool after its waiter has RECEIVED: each registered channel
// gets exactly one buffered send (read loop or fail), so post-receive
// it is provably empty. Channels abandoned on cancellation are never
// repooled — their send may still be in flight.
var respChanPool = sync.Pool{New: func() any { return make(chan remoteResp, 1) }}

func (c *remoteConn) register(id uint64) (chan remoteResp, error) {
	ch := respChanPool.Get().(chan remoteResp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		respChanPool.Put(ch) // never registered, provably empty
		return nil, c.err
	}
	c.pending[id] = pendingCall{ch: ch}
	return ch, nil
}

// registerStream registers a stream call. Its channel is buffered
// deep enough that the read loop rarely blocks handing over parts
// (and when it does, that is exactly the backpressure wanted), and it
// is NEVER pooled: an abandoned stream's channel may still receive
// in-flight sends from the read loop — see reapStream.
func (c *remoteConn) registerStream(id uint64) (chan remoteResp, error) {
	ch := make(chan remoteResp, 32)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil, c.err
	}
	c.pending[id] = pendingCall{ch: ch, stream: true}
	return ch, nil
}

// reapStream drains an abandoned stream call in the background until
// its final frame (or the connection's failure notice) arrives. The
// server terminates every request with exactly one non-part frame —
// including cancelled ones — and fail() notifies every registered
// call, so the reaper always terminates; keeping the registration
// alive until then is what keeps the read loop from blocking forever
// on a consumer that walked away.
func reapStream(ch chan remoteResp) {
	go func() {
		for r := range ch {
			if r.err != nil || r.op != wire.OpChunkWantPart {
				return
			}
		}
	}()
}

func (c *remoteConn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// othersPending reports whether a call besides the writer's own is
// registered, whose frame may be about to join the flush.
func (c *remoteConn) othersPending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending) > 1
}

func (c *remoteConn) write(id uint64, op uint8, payload []byte) error {
	return c.fw.writeFrame(id, op, payload)
}

// callSlot performs one request/response exchange on a pool slot.
// Exactly one of the answer's three parts is meaningful: a decoder
// positioned after the status byte (success), the server's typed error
// payload, or a local / transport error. The chunk-sync ops of one logical Put
// must all travel on the same connection: the server scopes the GC
// shields taken during negotiation to the connection that negotiated
// them, so a commit arriving on a different connection would not
// release them (and a mid-upload disconnect could not be told apart
// from a still-negotiating client).
func (rs *RemoteStore) callSlot(ctx context.Context, slot uint64, op uint8, payload []byte) callResult {
	calls := [1]slotCall{{op: op, payload: payload}}
	rs.callFrames(ctx, slot, calls[:])
	return calls[0].callResult
}

// callResult is one answer of callFrames.
type callResult struct {
	d   wire.Dec
	ep  *wire.ErrorPayload
	err error
}

// failure is the call's error, local or the server's; nil on success.
func (r callResult) failure() error {
	if r.err != nil {
		return r.err
	}
	if r.ep != nil {
		return r.ep.Err
	}
	return nil
}

// slotCall is one request of callFrames and, once it returns, its
// answer.
type slotCall struct {
	op      uint8
	payload []byte
	callResult

	id uint64
	ch chan remoteResp
}

// callFrames sends calls on one pool slot — every frame but the last
// enqueued, the last written, so all of them leave in one flush — and
// waits for every answer, in request order, leaving each in its call.
// Each call is observed under its own op, timed to when its answer is
// taken. More than one call costs one round trip only against a server
// that applies each request before it reads the next, as a chunk-sync
// server applies a Send (wire.FeatureChunkSync).
func (rs *RemoteStore) callFrames(ctx context.Context, slot uint64, calls []slotCall) {
	start := time.Now()
	finish := func(i int, r callResult) {
		calls[i].callResult = r
		// A local failure (dial, cancellation, a frame-cap refusal) is
		// a failed call from the caller's seat, like a server's error.
		rs.cm.observe(calls[i].op, time.Since(start), r.err != nil || r.ep != nil)
	}
	failFrom := func(i int, err error) {
		for ; i < len(calls); i++ {
			finish(i, callResult{err: err})
		}
	}
	if err := ctx.Err(); err != nil {
		failFrom(0, err)
		return
	}
	for i := range calls {
		if err := rs.fits(len(calls[i].payload)); err != nil {
			failFrom(0, err)
			return
		}
	}
	c, err := rs.conn(slot)
	if err != nil {
		failFrom(0, err)
		return
	}
	for i := range calls {
		calls[i].id = rs.reqID.Add(1)
		if calls[i].ch, err = c.register(calls[i].id); err != nil {
			// The connection died; the calls registered before this
			// one got fail's notice, and their channels are not
			// repooled.
			failFrom(0, err)
			return
		}
	}
	last := len(calls) - 1
	for i := 0; i < last && err == nil; i++ {
		err = c.fw.enqueue(calls[i].id, calls[i].op, calls[i].payload)
	}
	if err == nil {
		err = c.write(calls[last].id, calls[last].op, calls[last].payload)
	}
	if err != nil {
		for i := range calls {
			c.unregister(calls[i].id)
		}
		c.fail(err)
		failFrom(0, err)
		return
	}
	for i := range calls {
		select {
		case r := <-calls[i].ch:
			respChanPool.Put(calls[i].ch) // received its one send; empty again
			if r.err != nil {
				finish(i, callResult{err: r.err})
				continue
			}
			finish(i, decodeStatus(r.payload))
		case <-ctx.Done():
			// Abandon locally at once; tell the server so it stops
			// paying for the walk. A response that still arrives is
			// dropped by the read loop.
			for j := i; j < len(calls); j++ {
				c.unregister(calls[j].id)
				rs.cancel(c, calls[j].id)
			}
			failFrom(i, ctx.Err())
			return
		}
	}
}

// maxPayload is the largest request payload the server's frame cap
// admits.
func (rs *RemoteStore) maxPayload() int { return wire.MaxPayload(int(rs.maxFrame.Load())) }

// fits fails a request payload the server's frame cap cannot carry,
// which sent would make the server drop the connection and every
// request on it.
func (rs *RemoteStore) fits(n int) error {
	if max := rs.maxPayload(); n > max {
		return fmt.Errorf("forkbase: request of %d bytes exceeds the server's frame cap of %d bytes (%d of payload)", n, rs.maxFrame.Load(), max)
	}
	return nil
}

// cancel tells the server, best effort, to stop working on request id:
// the caller has walked away. It is counted, not timed, as the server
// counts it.
func (rs *RemoteStore) cancel(c *remoteConn, id uint64) {
	rs.cm.reqs[wire.OpCancel].Inc()
	var e wire.Enc
	e.U64(id)
	go c.write(rs.reqID.Add(1), wire.OpCancel, e.Bytes())
}

// decodeStatus splits a response payload into success decoder or
// typed error. The decoder comes back by value, so a caller that reads
// it in place keeps it on the stack.
func decodeStatus(payload []byte) callResult {
	d := *wire.NewDec(payload)
	switch status := d.U8(); status {
	case 0:
		return callResult{d: d}
	case 1:
		ep, err := wire.DecodeError(&d)
		if err != nil {
			return callResult{err: err}
		}
		return callResult{ep: &ep}
	default:
		return callResult{err: fmt.Errorf("%w: unknown response status %d", wire.ErrCodec, status)}
	}
}

// wireOpts returns a resolved option set's wire form; custom
// resolvers cannot be serialized and are rejected before any bytes
// move.
func wireOpts(o callOpts) (wire.CallOptions, error) {
	code, ok := wire.ResolverCode(o.resolver)
	if !ok {
		return wire.CallOptions{}, fmt.Errorf(
			"%w: custom resolvers cannot cross the wire; use ChooseA/ChooseB/AppendResolve/Aggregate", ErrBadOptions)
	}
	o.Resolver = code
	return o.CallOptions, nil
}

// roundTrip performs one Store call on the next pool slot: the option
// prefix, then whatever enc appends; on success dec reads the response
// body and the decoder's error is the call's. A typed server error is
// returned as err with its payload in ep — Put and Merge hand back the
// uid and conflicts it carries.
func roundTrip[T any](ctx context.Context, rs *RemoteStore, op uint8, o callOpts, enc func(e *wire.Enc) error, dec func(d *wire.Dec) (T, error)) (v T, ep *wire.ErrorPayload, err error) {
	co, err := wireOpts(o)
	if err != nil {
		return v, nil, err
	}
	// The request encoding rides a pooled buffer: the frame writer
	// consumes the payload before writeFrame returns, so it is free
	// for reuse once the call has been sent.
	e := wire.EncWith(wire.GetFrameBuf())
	wire.EncodeCallOptions(&e, co)
	if enc != nil {
		if err := enc(&e); err != nil {
			wire.PutFrameBuf(e.Bytes())
			return v, nil, err
		}
	}
	r := rs.callSlot(ctx, rs.next.Add(1), op, e.Bytes())
	wire.PutFrameBuf(e.Bytes())
	if r.err != nil {
		return v, nil, r.err
	}
	if r.ep != nil {
		return v, r.ep, r.ep.Err
	}
	if v, err = dec(&r.d); err == nil {
		err = r.d.Err()
	}
	return v, nil, err
}

// encStrs and encKeyUID are the request bodies several ops share.
func encStrs(ss ...string) func(e *wire.Enc) error {
	return func(e *wire.Enc) error {
		for _, s := range ss {
			e.Str(s)
		}
		return nil
	}
}

func encKeyUID(key string, uid UID) func(e *wire.Enc) error {
	return func(e *wire.Enc) error {
		e.Str(key)
		e.UID(uid)
		return nil
	}
}

// noBody decodes a response that carries nothing but its status.
func noBody(*wire.Dec) (struct{}, error) { return struct{}{}, nil }

func decUID(d *wire.Dec) (UID, error) { return d.UID(), nil }

// get checks a version read by WithBase is the one asked for: its uid
// commits to its content and derivation, so any other uid in the
// response fails with ErrCorrupt.
func (rs *RemoteStore) get(ctx context.Context, key string, o callOpts) (*FObject, error) {
	obj, _, err := roundTrip(ctx, rs, wire.OpGet, o, encStrs(key), wire.DecodeFObject)
	if base, ok := o.base(); err == nil && ok && obj.UID() != base {
		return nil, fmt.Errorf("forkbase: Get of version %s received %s: %w", base.Short(), obj.UID().Short(), ErrCorrupt)
	}
	return obj, err
}

// put sends a chunkable value over chunk sync when it is active: build
// the POS-Tree locally, negotiate which chunks the server is missing,
// upload only those, and commit by tree root — a 1% edit to a large
// object ships roughly 1% of its bytes.
func (rs *RemoteStore) put(ctx context.Context, key string, v Value, _ *branch.Batch, o callOpts) (UID, error) {
	if rs.chunkSyncOn() && !v.Type().Primitive() {
		uid, err := rs.putChunked(ctx, key, v, o)
		if err == nil || !errors.Is(err, wire.ErrUnsupported) {
			return uid, err
		}
		// The server stopped serving chunk ops (e.g. failed over to a
		// proxy backend); full-ship still works.
	}
	uid, ep, err := roundTrip(ctx, rs, wire.OpPut, o, func(e *wire.Enc) error {
		e.Str(key)
		return wire.EncodeValue(e, v)
	}, decUID)
	if ep != nil {
		return ep.UID, err
	}
	return uid, err
}

// apply sends the whole batch as one request, which executes as one
// batched apply on the server, keeping the per-servlet grouping
// benefits.
func (rs *RemoteStore) apply(ctx context.Context, b *Batch, o callOpts) ([]UID, error) {
	if b.err != nil {
		return nil, b.err
	}
	uids, _, err := roundTrip(ctx, rs, wire.OpApply, o, func(e *wire.Enc) error {
		e.U32(uint32(len(b.puts)))
		for _, p := range b.puts {
			e.Str(string(p.Key))
			wire.EncodeCallOptions(e, wire.CallOptions{
				Branch:    p.Branch,
				BranchSet: true,
				Guard:     p.Guard,
				Meta:      p.Meta,
			})
			if err := wire.EncodeValue(e, p.Value); err != nil {
				return err
			}
		}
		return nil
	}, func(d *wire.Dec) ([]UID, error) { return wire.DecodeUIDs(d), nil })
	return uids, err
}

func (rs *RemoteStore) fork(ctx context.Context, key, newBranch string, o callOpts) error {
	_, _, err := roundTrip(ctx, rs, wire.OpFork, o, encStrs(key, newBranch), noBody)
	return err
}

// merge: conflict lists — and the uid of a merge that applied but
// failed a durability report — round-trip inside error responses.
func (rs *RemoteStore) merge(ctx context.Context, key, tgtBranch string, o callOpts) (UID, []Conflict, error) {
	uid, ep, err := roundTrip(ctx, rs, wire.OpMerge, o, encStrs(key, tgtBranch), decUID)
	if ep != nil {
		return ep.UID, ep.Conflicts, err
	}
	return uid, nil, err
}

// track checks that the history it receives is a derivation chain
// (checkChain) and fails with ErrCorrupt otherwise.
func (rs *RemoteStore) track(ctx context.Context, key string, from, to int, o callOpts) ([]*FObject, error) {
	hist, _, err := roundTrip(ctx, rs, wire.OpTrack, o, func(e *wire.Enc) error {
		e.Str(key)
		e.I64(int64(from))
		e.I64(int64(to))
		return nil
	}, wire.DecodeFObjects)
	if err == nil {
		err = checkChain(hist, from, to, &o)
	}
	if err != nil {
		return nil, err
	}
	return hist, nil
}

// checkChain checks a Track answer against what the uids in it commit
// to: each version is the first base of the one before it; a walk from
// distance 0 behind WithBase(u) starts at u; and an answer shorter than
// [from, to] ends where the history does, at a version without bases
// (an empty one only if from is past the end). Each check is a uid
// compare.
func checkChain(hist []*FObject, from, to int, o *callOpts) error {
	for i := 1; i < len(hist); i++ {
		if prev := hist[i-1]; len(prev.Bases) == 0 || prev.Bases[0] != hist[i].UID() {
			return fmt.Errorf("forkbase: Track received %s after %s, which does not derive from it: %w",
				hist[i].UID().Short(), prev.UID().Short(), ErrCorrupt)
		}
	}
	if base, ok := o.base(); ok && from == 0 && (len(hist) == 0 || hist[0].UID() != base) {
		return fmt.Errorf("forkbase: Track behind version %s did not start at it: %w", base.Short(), ErrCorrupt)
	}
	if n := len(hist); n <= to-from && (n == 0 && from == 0 || n > 0 && len(hist[n-1].Bases) > 0) {
		return fmt.Errorf("forkbase: Track received %d of %d versions, ending before the first: %w", n, to-from+1, ErrCorrupt)
	}
	return nil
}

func (rs *RemoteStore) diff(ctx context.Context, key string, a, b UID, o callOpts) (*Diff, error) {
	df, _, err := roundTrip(ctx, rs, wire.OpDiff, o, func(e *wire.Enc) error {
		e.Str(key)
		e.UID(a)
		e.UID(b)
		return nil
	}, wire.DecodeDiff)
	return df, err
}

func (rs *RemoteStore) listKeys(ctx context.Context, o callOpts) ([]string, error) {
	keys, _, err := roundTrip(ctx, rs, wire.OpListKeys, o, nil, func(d *wire.Dec) ([]string, error) {
		return wire.DecodeStrings(d), nil
	})
	return keys, err
}

func (rs *RemoteStore) listBranches(ctx context.Context, key string, o callOpts) (BranchList, error) {
	bl, _, err := roundTrip(ctx, rs, wire.OpListBranches, o, encStrs(key), func(d *wire.Dec) (BranchList, error) {
		tagged, untagged := wire.DecodeBranchList(d)
		return BranchList{Tagged: tagged, Untagged: untagged}, nil
	})
	return bl, err
}

func (rs *RemoteStore) renameBranch(ctx context.Context, key, branchName, newName string, o callOpts) error {
	_, _, err := roundTrip(ctx, rs, wire.OpRenameBranch, o, encStrs(key, branchName, newName), noBody)
	return err
}

func (rs *RemoteStore) removeBranch(ctx context.Context, key, branchName string, o callOpts) error {
	_, _, err := roundTrip(ctx, rs, wire.OpRemoveBranch, o, encStrs(key, branchName), noBody)
	return err
}

func (rs *RemoteStore) pin(ctx context.Context, key string, uid UID, on bool, o callOpts) error {
	op := wire.OpUnpin
	if on {
		op = wire.OpPin
	}
	_, _, err := roundTrip(ctx, rs, op, o, encKeyUID(key, uid), noBody)
	return err
}

// gc runs the collection on the server against whatever backend
// forkserved wraps.
func (rs *RemoteStore) gc(ctx context.Context, o callOpts) (GCStats, error) {
	stats, _, err := roundTrip(ctx, rs, wire.OpGC, o, nil, func(d *wire.Dec) (GCStats, error) {
		return wire.DecodeGCStats(d), nil
	})
	return stats, err
}

// value: without chunk sync the value is materialized by the server
// and comes back staged. With it, a chunkable value costs one Want and
// comes back as a handle whose reads fetch what they touch within ctx,
// as the caller's user (see RemoteStore). Either way one round trip is
// made even when nothing needs to move — primitives could decode
// locally from obj.Data — so the server-side ACL check runs exactly as
// it would embedded: deployment modes must not diverge on who may
// decode what.
func (rs *RemoteStore) value(ctx context.Context, key string, obj *FObject, o callOpts) (Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if obj.UID().IsNil() {
		return nil, fmt.Errorf("%w: Value needs a version fetched from the store", ErrBadOptions)
	}
	if rs.chunkSyncOn() && !obj.VType.Primitive() {
		v, err := rs.valueChunked(ctx, key, obj, o.User)
		if err == nil || !errors.Is(err, wire.ErrUnsupported) {
			return v, err
		}
	}
	v, _, err := roundTrip(ctx, rs, wire.OpValue, o, encKeyUID(key, obj.UID()), wire.DecodeValue)
	return v, err
}

// Stats reports the server backend's chunk-storage counters (tooling;
// not part of the Store interface), read from the forkbase_store_*
// series of its ServerStats snapshot. A backend without those series,
// such as a cluster, answers ErrUnsupported.
func (rs *RemoteStore) Stats(ctx context.Context) (StoreStats, error) {
	samples, err := rs.ServerStats(ctx)
	if err != nil {
		return StoreStats{}, err
	}
	var stats StoreStats
	fields, found := reflect.ValueOf(&stats).Elem(), 0
	for _, s := range samples {
		if field, ok := storeSeries[s.Name]; ok && s.Tags == "" {
			fields.FieldByName(field).SetInt(s.Value)
			found++
		}
	}
	if found != len(storeSeries) {
		return StoreStats{}, fmt.Errorf("forkbase: server backend reports no storage counters: %w", wire.ErrUnsupported)
	}
	return stats, nil
}

// --- chunk-granular transfer (chunksync) ----------------------------

// chunkOpts is the option prefix chunk ops carry: only the user
// identity matters — the server checks it against the routing key.
func chunkOpts(user, key string) *wire.Enc {
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{User: user})
	e.Str(key)
	return &e
}

// chunkHave asks which of ids the server already stores. Shield-taking
// ops ride a caller-pinned slot; see callSlot.
func (rs *RemoteStore) chunkHave(ctx context.Context, slot uint64, user, key string, ids []chunk.ID) ([]bool, error) {
	e := chunkOpts(user, key)
	wire.EncodeUIDs(e, ids)
	r := rs.callSlot(ctx, slot, wire.OpChunkHave, e.Bytes())
	if err := r.failure(); err != nil {
		return nil, err
	}
	bits := wire.DecodeBitmap(&r.d, len(ids))
	return bits, r.d.Err()
}

// chunkWantStream performs one Want: the server ships chunks in
// OpChunkWantPart frames, handed to sink in arrival order, then a
// final status frame ends the call. deep marks the ids as POS-Tree
// roots whose whole reachable subtrees are wanted. sink runs on this
// goroutine; a ChunkFrame's Bytes are backed by the frame's own
// buffer and may be retained. Returns how many chunks arrived.
func (rs *RemoteStore) chunkWantStream(ctx context.Context, user, key string, ids []chunk.ID, deep bool, sink func(f wire.ChunkFrame) error) (got int, retErr error) {
	// Stream calls bypass callSlot, so they record their own per-op
	// sample; the whole stream is one logical OpChunkWant call.
	start := time.Now()
	defer func() { rs.cm.observe(wire.OpChunkWant, time.Since(start), retErr != nil) }()
	e := chunkOpts(user, key)
	wire.EncodeUIDs(e, ids)
	var flags uint8
	if deep {
		flags = wire.WantFlagDeep
	}
	e.U8(flags)
	payload := e.Bytes()
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := rs.fits(len(payload)); err != nil {
		return 0, err
	}
	c, err := rs.conn(rs.next.Add(1))
	if err != nil {
		return 0, err
	}
	id := rs.reqID.Add(1)
	ch, err := c.registerStream(id)
	if err != nil {
		return 0, err
	}
	if err := c.write(id, wire.OpChunkWant, payload); err != nil {
		c.unregister(id)
		c.fail(err)
		return 0, err
	}
	// abort walks away mid-stream: tell the server to stop paying for
	// it, and hand the registration to a reaper so the read loop can
	// keep delivering (and discarding) whatever is already in flight
	// until the server's final frame lands.
	abort := func(err error) (int, error) {
		rs.cancel(c, id)
		reapStream(ch)
		return got, err
	}
	for {
		select {
		case <-ctx.Done():
			return abort(ctx.Err())
		case r := <-ch:
			if r.err != nil {
				return got, r.err // connection failed; nothing left to reap
			}
			if r.op == wire.OpChunkWantPart {
				d := wire.NewDec(r.payload)
				frames := wire.DecodeChunkUpload(d)
				if err := d.Err(); err != nil {
					return abort(err)
				}
				for _, f := range frames {
					if err := sink(f); err != nil {
						return abort(err)
					}
					got++
				}
				continue
			}
			// The final frame carries the usual status payload; its
			// count is advisory (got tracks actual arrivals).
			res := decodeStatus(r.payload)
			if err := res.failure(); err != nil {
				return got, err
			}
			res.d.U32()
			return got, res.d.Err()
		}
	}
}

// chunkWantFetch is the chunksync.FetchFunc over a Want: one round
// trip answers the whole batch, aligned back to ids with nil for
// chunks the server does not hold.
func (rs *RemoteStore) chunkWantFetch(ctx context.Context, user, key string, ids []chunk.ID) ([][]byte, error) {
	raws := make(map[chunk.ID][]byte, len(ids))
	if _, err := rs.chunkWantStream(ctx, user, key, ids, false, func(f wire.ChunkFrame) error {
		raws[f.ID] = f.Bytes
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = raws[id]
	}
	return out, nil
}

// admitChunk verifies a received chunk against the id it came under
// and stores it in the local chunk cache.
func (rs *RemoteStore) admitChunk(f wire.ChunkFrame) (*chunk.Chunk, error) {
	c, err := chunk.Decode(f.Bytes)
	if err != nil {
		return nil, fmt.Errorf("forkbase: received chunk %s: %w", f.ID.Short(), err)
	}
	if c.ID() != f.ID {
		return nil, fmt.Errorf("forkbase: received chunk hashes to %s, claimed %s: %w", c.ID().Short(), f.ID.Short(), store.ErrCorrupt)
	}
	if _, err := rs.local.Put(c); err != nil {
		return nil, err
	}
	return c, nil
}

// chunkSend uploads a batch of chunks; the server re-verifies each
// chunk's id before admission. Shield-taking ops ride a caller-pinned
// slot; see callSlot.
func (rs *RemoteStore) chunkSend(ctx context.Context, slot uint64, user, key string, chunks []*chunk.Chunk) error {
	e := chunkOpts(user, key)
	wire.EncodeChunkUpload(e, chunks)
	return rs.callSlot(ctx, slot, wire.OpChunkSend, e.Bytes()).failure()
}

// haveBatch caps ids per Have request so the request fits the frame.
func (rs *RemoteStore) haveBatch() int {
	return min((rs.maxPayload()-1024)/(chunk.IDSize+1), chunksync.DefaultHaveBatch)
}

// sendBytes caps cumulative chunk payload per Send request.
func (rs *RemoteStore) sendBytes() int {
	return min(rs.maxPayload()/2, chunksync.DefaultSendBytes)
}

// valueChunked is Value over chunk sync: one Want, and a handle over
// the local chunk store that fetches what its reads touch. The Want
// carries the caller's identity, so the server's access check runs
// whether or not anything is missing — deployment modes must not
// diverge on who may decode what — and it asks for the root only when
// the store lacks it. Nothing here looks below the root: a cached root
// says nothing about its subtree (a cancelled fill admits the root
// first), and the reads find out what is missing as they go.
//
// On a store that holds nothing at all, the Want is deep: the server
// streams the whole tree in that one round trip. The rule is
// all-or-nothing on purpose: once anything is cached, the value
// probably shares most of its chunks with what is here (the dedup
// argument), and a deep stream would ship the full tree where the
// reads' fills move only the delta.
//
// Edits stage copy-on-write chunks in the store, ready for a delta Put.
func (rs *RemoteStore) valueChunked(ctx context.Context, key string, o *FObject, user string) (Value, error) {
	kind, ok := types.KindOfType(o.VType)
	if !ok {
		return nil, fmt.Errorf("forkbase: cannot decode value of type %v", o.VType)
	}
	root, count, height, err := types.ParseChunkRef(o.Data)
	if err != nil {
		return nil, err
	}
	var want []chunk.ID
	if !root.IsNil() && !rs.local.Has(root) {
		want = []chunk.ID{root}
	}
	deep := want != nil && rs.local.Stats().Chunks == 0
	gotRoot := false
	if _, err := rs.chunkWantStream(ctx, user, key, want, deep, func(f wire.ChunkFrame) error {
		if _, err := rs.admitChunk(f); err != nil {
			return err
		}
		gotRoot = gotRoot || f.ID == root
		return nil
	}); err != nil {
		return nil, err
	}
	if want != nil && !gotRoot {
		return nil, fmt.Errorf("forkbase: chunk %s: %w", root.Short(), store.ErrNotFound)
	}
	tree := postree.Attach(&remoteChunkStore{localChunkStore: localChunkStore{rs}, user: user, key: key, ctx: ctx}, rs.treeCfg, kind, root, count, height)
	v, _ := types.AttachValue(o.VType, tree)
	return v, nil
}

// putChunked is Put over chunk sync: persist the value's tree into the
// local store (a no-op for values already attached there), upload what
// the server lacks, and commit by root. The commit op re-derives the
// tree shape server-side and verifies completeness before the put
// executes.
//
// The upload covers what this client staged, not the tree: see
// pushTree. When the server finds the tree incomplete although the
// client took part of it for granted, that knowledge was stale (the
// branch was removed and collected since the value was fetched) and
// the same pass runs once more taking nothing for granted.
func (rs *RemoteStore) putChunked(ctx context.Context, key string, v Value, o callOpts) (UID, error) {
	co, err := wireOpts(o)
	if err != nil {
		return UID{}, err
	}
	if err := types.Persist(localChunkStore{rs}, rs.treeCfg, v); err != nil {
		return UID{}, err
	}
	tree := types.TreeOf(v)
	if tree == nil {
		return UID{}, fmt.Errorf("forkbase: chunked put: value of type %v has no tree", v.Type())
	}
	// One slot for the whole negotiate→upload→commit sequence, and for
	// its retry: the server scopes the GC shields taken by Have/Send to
	// the connection that took them, and only the commit (or teardown)
	// on that same connection releases them.
	slot := rs.next.Add(1)
	uid, stale, err := rs.pushTree(ctx, slot, key, v.Type(), tree, co, true)
	if stale {
		uid, _, err = rs.pushTree(ctx, slot, key, v.Type(), tree, co, false)
	}
	return uid, err
}

// pushTree is one upload→commit pass. With trust, the walk over the
// tree descends only through index nodes that are staged and lists
// only staged chunks: a chunk that is not staged came from the server
// with everything under it, so the upload carries the handful of nodes
// an edit created, however large the value. Without trust every node
// is listed, which is the upload of a client that knows nothing.
//
// When the walk took something for granted, the listed chunks are an
// edit's own copy-on-write nodes, which no server has been told about,
// and they are sent unasked. Otherwise — a fresh value, the stale
// retry — a Have first finds which of them the server already holds,
// so content it has under another key crosses as ids, not bytes.
//
// The server applies a Send before it reads the next frame
// (wire.FeatureChunkSync), so the last Send and the commit leave in one
// flush (callFrames), which makes an edit's put one round trip. A Send's
// error is the put's, whatever the commit answered. Chunks are
// unstaged only once every Send that carried them has succeeded.
//
// stale reports a commit the server refused as incomplete after the
// walk had taken something for granted.
func (rs *RemoteStore) pushTree(ctx context.Context, slot uint64, key string, vt types.Type, tree *postree.Tree, co wire.CallOptions, trust bool) (uid UID, stale bool, err error) {
	var ids []chunk.ID
	seen := make(map[chunk.ID]bool)
	assumed := false
	if err := tree.Walk(func(id chunk.ID, _ int) (bool, error) {
		if seen[id] {
			return false, nil
		}
		seen[id] = true
		if trust && !rs.isStaged(id) {
			assumed = true
			return false, nil
		}
		ids = append(ids, id)
		return true, nil
	}); err != nil {
		return UID{}, false, err
	}
	var st chunksync.Stats
	upload := ids
	if !assumed {
		have := func(ctx context.Context, ids []chunk.ID) ([]bool, error) {
			return rs.chunkHave(ctx, slot, co.User, key, ids)
		}
		if upload, err = chunksync.Missing(ctx, ids, have, rs.haveBatch(), &st); err != nil {
			return UID{}, false, err
		}
	}
	var e wire.Enc
	wire.EncodeCallOptions(&e, co)
	e.Str(key)
	e.U8(uint8(vt))
	e.UID(tree.Root())
	commit := e.Bytes()
	var res callResult // the commit's answer
	pipelined := false
	send := func(ctx context.Context, chunks []*chunk.Chunk, last bool) error {
		if !last {
			return rs.chunkSend(ctx, slot, co.User, key, chunks)
		}
		pipelined = true
		sent := chunkOpts(co.User, key)
		wire.EncodeChunkUpload(sent, chunks)
		calls := [2]slotCall{{op: wire.OpChunkSend, payload: sent.Bytes()}, {op: wire.OpPutChunked, payload: commit}}
		rs.callFrames(ctx, slot, calls[:])
		res = calls[1].callResult
		return calls[0].failure()
	}
	if err := chunksync.Push(ctx, tree.Store(), upload, send, rs.sendBytes(), &st); err != nil {
		return UID{}, false, err
	}
	// Every listed chunk is now acknowledged: the server answered
	// "present" or took it in a Send that has returned. Not a moment
	// earlier — a Send that failed must find them staged next time.
	rs.unstage(ids)
	if !pipelined {
		res = rs.callSlot(ctx, slot, wire.OpPutChunked, commit)
	}
	if res.err != nil {
		return UID{}, false, res.err
	}
	if res.ep != nil {
		return res.ep.UID, assumed && errors.Is(res.ep.Err, store.ErrNotFound), res.ep.Err
	}
	uid = res.d.UID()
	return uid, false, res.d.Err()
}

func (rs *RemoteStore) isStaged(id chunk.ID) bool {
	rs.stagedMu.Lock()
	_, ok := rs.staged[id]
	rs.stagedMu.Unlock()
	return ok
}

func (rs *RemoteStore) unstage(ids []chunk.ID) {
	rs.stagedMu.Lock()
	for _, id := range ids {
		delete(rs.staged, id)
	}
	rs.stagedMu.Unlock()
}

// localChunkStore is the client chunk store as the trees built and
// edited here see it: rs.local, with every chunk created through it
// staged until the server acknowledges it.
type localChunkStore struct{ rs *RemoteStore }

func (s localChunkStore) Get(id chunk.ID) (*chunk.Chunk, error) { return s.rs.local.Get(id) }
func (s localChunkStore) Has(id chunk.ID) bool                  { return s.rs.local.Has(id) }
func (s localChunkStore) Stats() store.Stats                    { return s.rs.local.Stats() }
func (s localChunkStore) Close() error                          { return nil }

// Put stages the chunk unless the store already holds it — in which
// case it either is staged already or came from the server — and only
// then stores it, so no other goroutine can find a locally created
// chunk in the store and not in the staged set. Staging a chunk the
// server does hold costs one id in a Have request.
func (s localChunkStore) Put(c *chunk.Chunk) (bool, error) {
	if !s.rs.local.Has(c.ID()) {
		s.rs.stagedMu.Lock()
		s.rs.staged[c.ID()] = struct{}{}
		s.rs.stagedMu.Unlock()
	}
	return s.rs.local.Put(c)
}

// remoteChunkStore is the store chunk-synced value handles attach to:
// reads are served from the local store and fall through to the wire
// for anything missing (verified before admission); writes — the
// copy-on-write chunks of local edits — are staged there, where the
// next delta Put finds them.
//
// What falls through is what a read touches. A point read (Get, GetAt,
// ReadAt, an edit's descent) fetches the nodes on its one path, one
// Want per missing node. Iteration (postree.LeafIter, under Bytes and
// every element iterator) fills instead: the missing node it is about
// to open, and the siblings after it, in one level-by-level pull.
type remoteChunkStore struct {
	localChunkStore
	user string
	key  string
	// ctx is the context of the Value call that attached this handle.
	// Handle reads mirror the embedded store's context-free interface,
	// so the fetches they make run within the attaching call's
	// lifetime, as its user: cancel it and a miss aborts instead of
	// riding an unbounded background request.
	ctx context.Context
}

func (s *remoteChunkStore) Get(id chunk.ID) (*chunk.Chunk, error) {
	c, err := s.rs.local.Get(id)
	if err == nil || !errors.Is(err, store.ErrNotFound) {
		return c, err
	}
	got, werr := s.fetch(s.ctx, []chunk.ID{id})
	if werr != nil {
		return nil, werr
	}
	if got[0] == nil {
		return nil, fmt.Errorf("forkbase: chunk %s: %w", id.Short(), store.ErrNotFound)
	}
	return s.rs.admitChunk(wire.ChunkFrame{ID: id, Bytes: got[0]})
}

// GetLocal implements postree.Filler: the local store's copy, never
// fetched.
func (s *remoteChunkStore) GetLocal(id chunk.ID) (*chunk.Chunk, error) { return s.rs.local.Get(id) }

// FillSubtrees implements postree.Filler: chunksync's discovery pull
// into the local store, verified chunk by chunk, moving only what the
// store lacks.
func (s *remoteChunkStore) FillSubtrees(roots []chunk.ID, level int) error {
	_, err := chunksync.PullSubtrees(s.ctx, s.rs.local, s.fetch, roots, level, chunksync.PullConfig{})
	return err
}

// fetch is the chunksync.FetchFunc of this handle's user and key.
func (s *remoteChunkStore) fetch(ctx context.Context, ids []chunk.ID) ([][]byte, error) {
	return s.rs.chunkWantFetch(ctx, s.user, s.key, ids)
}

var _ Store = (*RemoteStore)(nil)
