package forkbase

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"forkbase/internal/chunk"
	"forkbase/internal/chunksync"
	"forkbase/internal/core"
	"forkbase/internal/obs"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/types"
	"forkbase/internal/wire"
)

// ErrServerClosed is the typed error a draining server answers new
// requests with; in-flight requests still complete. It round-trips to
// clients, so a RemoteStore caller can tell "server going away" from
// a data error and fail over.
var ErrServerClosed = wire.ErrShutdown

// ErrDuplicateRequest is the typed error a request receives when its
// id is already in flight on the same connection. The server refuses
// the newcomer rather than overwriting the original's cancel
// registration; the original request is unaffected. A well-behaved
// RemoteStore never triggers it (ids are monotonic per connection),
// so seeing it client-side means a buggy or hostile multiplexer.
var ErrDuplicateRequest = wire.ErrDuplicateRequest

// ServerOptions configures NewServer.
type ServerOptions struct {
	// AuthToken, when non-empty, must be presented by every
	// connection's Hello before any request is served. The protocol is
	// plaintext: the token gates accidental cross-talk, it is not a
	// substitute for a trusted network (see README, "Serving over the
	// network").
	AuthToken string
	// MaxFrame caps a single request or response frame in bytes; 0
	// means wire.DefaultMaxFrame (256 MiB). Values a client ships in
	// one Put must fit in one frame.
	MaxFrame int
	// Logf, when set, receives connection-level diagnostics (framing
	// violations, disconnects). Nil discards them.
	Logf func(format string, args ...any)
	// DisableChunkSync turns off the chunk-granular transfer ops even
	// when the backend could serve them: the server stops advertising
	// FeatureChunkSync and answers the chunk ops with ErrUnsupported,
	// forcing clients onto the full-ship path.
	DisableChunkSync bool
	// SlowOpThreshold, when positive, logs (via Logf) every dispatched
	// request whose execution exceeds it — op name, peer address,
	// duration and error class — so tail-latency outliers in the
	// histograms are attributable to something. 0 disables the log;
	// the latency histograms record regardless.
	SlowOpThreshold time.Duration
}

// Server exposes any Store — an embedded *DB, a ClusterClient, even
// another RemoteStore — over the forkbase wire protocol. This is the
// paper's dispatcher made real (§4.1): requests arrive over TCP,
// carry the user identity the access controller checks, and execute
// against the wrapped store with full pipelining — many in-flight
// requests per connection, each answered as it completes.
//
//	srv := forkbase.NewServer(db, forkbase.ServerOptions{})
//	ln, _ := net.Listen("tcp", ":7707")
//	go srv.Serve(ln)
//	...
//	srv.Shutdown(ctx) // graceful: drain in-flight, refuse new work
type Server struct {
	st   Store
	opts ServerOptions

	// db is st when st is a local embedded *DB, nil for proxy backends
	// (ClusterClient, RemoteStore). Everything that needs the engine
	// or chunk store behind the Store API keys off it: a local backend
	// serves the chunk-granular ops and storage counters, has its
	// puts coalesced into engine batches, and answers small reads
	// inline on the read loop. Proxies get none of that — they have no
	// local chunk store to negotiate against, and their Get may block
	// on a downstream round-trip, which inline would turn into a stall
	// for every pipelined request behind it on the connection.
	db *DB

	// reg/met are the server's observability spine: reg owns every
	// instrument; met caches them in per-op arrays so the request path
	// never touches the registry (see metrics.go).
	reg *obs.Registry
	met serverMetrics

	tasks    chan serverTask
	workerWG sync.WaitGroup
	stopOnce sync.Once

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*serverConn]struct{}
	draining bool
	closed   bool

	inflight sync.WaitGroup // request handlers across all connections
	connWG   sync.WaitGroup // connection read loops
}

// NewServer returns a server over st. The store stays owned by the
// caller: Shutdown/Close never close it, so one store can outlive —
// or be shared by — several listeners. The worker pool starts here,
// so a Server must be Shutdown or Closed even if Serve never ran.
func NewServer(st Store, opts ServerOptions) *Server {
	s := &Server{st: st, opts: opts, conns: make(map[*serverConn]struct{})}
	s.db, _ = st.(*DB)
	// The pool is shared by every connection and sizes against slow
	// requests (deep Track walks, big Values): small reads on a local
	// backend are answered inline on the read loop. A saturated pool
	// stops the connections reading instead of spawning more.
	workers := 4 * runtime.GOMAXPROCS(0)
	s.tasks = make(chan serverTask, 2*workers)
	s.reg = obs.NewRegistry()
	s.met.init(s.reg)
	s.reg.GaugeFunc("forkbase_server_queue_depth", "", func() int64 { return int64(len(s.tasks)) })
	for i := 0; i < workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// serverTask is one unit of pooled work: a registered slow-path
// request, or a coalesced put batch (batch non-nil; the per-request
// fields unused).
type serverTask struct {
	sc      *serverConn
	ctx     context.Context
	cancel  context.CancelFunc
	reqID   uint64
	op      uint8
	payload []byte
	buf     []byte // owning frame buffer; payload aliases it
	user    string
	batch   []putFrame
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		if t.batch != nil {
			t.sc.runPutBatch(t.user, t.batch)
		} else {
			t.sc.handle(t.ctx, t.cancel, t.reqID, t.op, t.payload)
			wire.PutFrameBuf(t.buf)
		}
	}
}

// stopWorkers joins the pool. Only safe once every read loop has
// exited (connWG drained): a loop could otherwise send on the closed
// channel.
func (s *Server) stopWorkers() {
	s.stopOnce.Do(func() { close(s.tasks) })
	s.workerWG.Wait()
}

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean Shutdown that error is
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var retryDelay time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.draining || s.closed
			s.mu.Unlock()
			if stopped {
				return ErrServerClosed
			}
			// Transient accept failures (fd exhaustion under load,
			// ECONNABORTED) must not kill a daemon with established
			// clients; back off and retry, the way net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if retryDelay == 0 {
					retryDelay = 5 * time.Millisecond
				} else if retryDelay *= 2; retryDelay > time.Second {
					retryDelay = time.Second
				}
				s.logf("forkserved: accept: %v; retrying in %v", err, retryDelay)
				time.Sleep(retryDelay)
				continue
			}
			return err
		}
		retryDelay = 0
		sc := s.newConn(c)
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[sc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go sc.readLoop()
	}
}

// Shutdown drains the server: the listener closes, requests already
// executing run to completion and their responses are flushed, and
// new requests are refused with ErrServerClosed. It returns nil once
// every in-flight request has finished, or ctx.Err() if the drain
// outlives ctx — in which case the remaining work is cut off as Close
// would.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeConns()
	s.connWG.Wait()
	s.stopWorkers()
	return err
}

// Close stops the server immediately: the listener and every
// connection close, cancelling in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.closeConns()
	s.connWG.Wait()
	s.stopWorkers()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// serverConn is one client connection: a read loop feeding pipelined
// request handlers, a batching frame writer coalescing their response
// frames, and a cancel registry so OpCancel (or the connection
// dropping) aborts exactly the in-flight work it should.
type serverConn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader
	fw  *frameWriter

	ctx    context.Context // cancelled when the connection dies
	cancel context.CancelFunc

	// authed and closed are atomics, not mu-guarded: the read loop
	// consults them per frame and must not contend with in-flight
	// handlers' inflight-map updates under mu.
	authed atomic.Bool
	closed atomic.Bool

	// deferredDone counts inline responses enqueued but not yet
	// flushed; their inflight slots are released only after the burst
	// flush, preserving Shutdown's "every admitted request's response
	// is flushed" contract. Read-loop-only, no locking.
	deferredDone int

	mu       sync.Mutex
	inflight map[uint64]context.CancelFunc

	// shields holds, per routing key, the chunk ids this connection
	// keeps shielded from collection on the backend while a chunked put
	// of that key is negotiated: what a Have answered "present" and what
	// a Send admitted, one engine shield per id. The key's commit
	// releases exactly that set; whatever is left when the connection
	// dies — a client that uploaded and hung up — is released wholesale,
	// returning the orphaned chunks to the collector. Its own mutex: an
	// engine shield call can wait out a collection's root enumeration,
	// and the read loop's inflight bookkeeping must not wait with it.
	shieldMu sync.Mutex
	shields  map[string]map[chunk.ID]struct{}
}

func (s *Server) newConn(c net.Conn) *serverConn {
	//forkvet:allow ctxflow — a connection IS a context root: per-request contexts hang off it and die with the socket, not with any caller
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serverConn{
		srv:      s,
		c:        c,
		br:       bufio.NewReaderSize(c, connBufSize),
		ctx:      ctx,
		cancel:   cancel,
		inflight: make(map[uint64]context.CancelFunc),
	}
	sc.fw = newFrameWriter(c, s.met.bytesOut, func(err error) {
		if !sc.isClosed() {
			s.logf("forkserved: write to %s: %v", c.RemoteAddr(), err)
		}
	})
	// A deadline that cannot be set is on a socket already dead, which
	// the read loop finds out on its first read.
	_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
	return sc
}

// chunkSync reports whether the chunk-granular transfer ops are
// served: a local backend, and not switched off.
func (s *Server) chunkSync() bool { return s.db != nil && !s.opts.DisableChunkSync }

// features is the capability bitmask advertised in the Hello response.
func (s *Server) features() uint32 {
	// Every server answers OpServerStats: the snapshot surface has no
	// backend requirement, unlike the chunk ops.
	f := wire.FeatureServerStats
	if s.chunkSync() {
		f |= wire.FeatureChunkSync
	}
	return f
}

// addShields shields ids on the backend for this connection's
// negotiation of key; ids the negotiation already holds are not taken
// twice. A connection that is already torn down takes none: nothing
// would release them, and its client cannot commit any more.
func (sc *serverConn) addShields(key string, ids []chunk.ID) {
	if len(ids) == 0 {
		return
	}
	sc.shieldMu.Lock()
	defer sc.shieldMu.Unlock()
	if sc.closed.Load() {
		return
	}
	set := sc.shields[key]
	if set == nil {
		if sc.shields == nil {
			sc.shields = make(map[string]map[chunk.ID]struct{})
		}
		set = make(map[chunk.ID]struct{}, len(ids))
		sc.shields[key] = set
	}
	fresh := make([]chunk.ID, 0, len(ids))
	for _, id := range ids {
		if _, held := set[id]; !held {
			set[id] = struct{}{}
			fresh = append(fresh, id)
		}
	}
	// Under the lock, so a release that detaches the set afterwards
	// finds every id in it already shielded.
	sc.srv.db.eng.ShieldUIDs(fresh)
}

// dropShields ends the connection's negotiation of key and releases
// what it shielded; other keys' negotiations on the connection keep
// theirs.
func (sc *serverConn) dropShields(key string) {
	sc.shieldMu.Lock()
	set := sc.shields[key]
	delete(sc.shields, key)
	sc.shieldMu.Unlock()
	sc.unshield(set)
}

// dropAllShields releases every negotiation's shields (connection
// teardown; closed is already set, so none can be added after).
func (sc *serverConn) dropAllShields() {
	sc.shieldMu.Lock()
	sets := sc.shields
	sc.shields = nil
	sc.shieldMu.Unlock()
	for _, set := range sets {
		sc.unshield(set)
	}
}

func (sc *serverConn) unshield(set map[chunk.ID]struct{}) {
	if len(set) == 0 {
		return
	}
	ids := make([]chunk.ID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sc.srv.db.eng.UnshieldUIDs(ids)
}

// close tears the connection down and cancels its in-flight requests.
func (sc *serverConn) close() {
	if !sc.closed.CompareAndSwap(false, true) {
		return
	}
	sc.dropAllShields()
	sc.cancel() // aborts handlers blocked in ctx-aware walks
	sc.c.Close()
	sc.srv.mu.Lock()
	delete(sc.srv.conns, sc)
	sc.srv.mu.Unlock()
}

// rawFrame is one parsed frame plus the pooled buffer it lives in.
type rawFrame struct {
	reqID   uint64
	op      uint8
	payload []byte
	buf     []byte
}

// readLoop parses frames until the connection dies. Framing
// violations close this connection only — the stream cannot be
// resynchronized — while well-framed garbage (unknown ops, undecodable
// payloads) is answered with a typed error and the connection lives.
//
// The loop is also where response batching is decided: while complete
// frames are still buffered (a pipelined burst mid-arrival), inline
// responses are corked in the frame writer; when the burst is spent
// the loop flushes once and releases the corked requests' inflight
// slots. One syscall per burst, in each direction.
func (sc *serverConn) readLoop() {
	defer sc.srv.connWG.Done()
	defer sc.close()
	defer sc.releaseDeferred()
	var carry *rawFrame
	for {
		var f rawFrame
		if carry != nil {
			f, carry = *carry, nil
		} else {
			var err error
			if f, err = sc.readFrame(); err != nil {
				wire.PutFrameBuf(f.buf)
				if !errors.Is(err, io.EOF) && !sc.isClosed() {
					sc.srv.logf("forkserved: %s: %v", sc.c.RemoteAddr(), err)
				}
				return
			}
		}
		keep, next, exit := sc.processFrame(f)
		if !keep {
			wire.PutFrameBuf(f.buf)
		}
		if exit {
			return
		}
		carry = next
		if carry == nil && !wire.FrameBuffered(sc.br) {
			sc.fw.flush()
			sc.releaseDeferred()
		}
	}
}

// preHelloMaxFrame caps what a connection may announce before its
// Hello succeeds. The frame buffer is allocated from the length prefix
// alone, so without this an unauthenticated peer could make the server
// allocate ServerOptions.MaxFrame with four bytes; a Hello carries a
// version and a token.
const preHelloMaxFrame = 64 << 10

// helloTimeout bounds how long an accepted connection may take to
// complete its Hello. Without it a peer that connects and never speaks
// holds a read loop and its buffer forever. Once the Hello succeeds the
// read deadline is cleared: an authenticated connection may idle.
var helloTimeout = 10 * time.Second

func (sc *serverConn) readFrame() (rawFrame, error) {
	var f rawFrame
	var err error
	maxFrame := sc.srv.opts.MaxFrame
	if !sc.isAuthed() && (maxFrame <= 0 || maxFrame > preHelloMaxFrame) {
		maxFrame = preHelloMaxFrame
	}
	f.reqID, f.op, f.payload, f.buf, err = wire.ReadFrameInto(sc.br, maxFrame, wire.GetFrameBuf())
	if err == nil {
		sc.srv.met.bytesIn.Add(frameWireBytes + int64(len(f.payload)))
	}
	return f, err
}

// releaseDeferred settles the inflight slots of inline responses now
// that their bytes have been handed to the connection.
func (sc *serverConn) releaseDeferred() {
	for ; sc.deferredDone > 0; sc.deferredDone-- {
		sc.srv.reqDone()
	}
}

// processFrame handles one parsed frame. keep reports that ownership
// of f.buf moved on (worker task or put batch); carry is a follow-up
// frame the put coalescer read but could not use, to be processed
// next; exit ends the read loop.
func (sc *serverConn) processFrame(f rawFrame) (keep bool, carry *rawFrame, exit bool) {
	switch {
	case f.op == wire.OpCancel:
		// Abort the named request; no response of its own (and no
		// latency: counted, not timed).
		sc.srv.met.reqs[wire.OpCancel].Inc()
		d := wire.NewDec(f.payload)
		target := d.U64()
		if d.Err() == nil {
			sc.mu.Lock()
			if cancel := sc.inflight[target]; cancel != nil {
				cancel()
			}
			sc.mu.Unlock()
		}
	case f.op == wire.OpHello:
		if !sc.hello(f.reqID, f.payload) {
			return false, nil, true
		}
	case !sc.isAuthed():
		// Requests before a successful Hello are a protocol
		// violation; refuse and hang up.
		sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: hello required before requests", ErrAccessDenied), nil, UID{})
		return false, nil, true
	case !served(f.op):
		sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: op %d is not a request this server serves", wire.ErrCodec, f.op), nil, UID{})
	case !sc.srv.admit():
		sc.respondErr(f.reqID, f.op, ErrServerClosed, nil, UID{})
	case sc.srv.db != nil && serverOps[f.op].inline:
		// The small-op fast path: answer right here on the read loop —
		// no goroutine, no context allocation, no cancel registration
		// (OpCancel arrives on this same loop, so it cannot race an op
		// that completes before the next read) — and cork the response
		// for the burst flush.
		start := time.Now()
		resp := sc.srv.dispatch(sc.ctx, sc, f.reqID, f.op, f.payload)
		sc.srv.observe(sc, f.op, start, resp)
		sc.send(f.reqID, f.op, resp)
		sc.deferredDone++
	case sc.srv.db != nil && serverOps[f.op].coalesce:
		return sc.handlePut(f)
	default:
		return sc.slowPath(f), nil, false
	}
	return false, nil, false
}

// slowPath registers the request's cancel func and hands it to the
// worker pool. Registration happens HERE, on the read loop, before
// any worker sees the request: an OpCancel frame can arrive on this
// same loop immediately after the request, and a registration done
// inside the handler would race it — losing the cancel and walking a
// deep history for a client that already hung up. Returns whether
// f.buf's ownership moved to the task.
func (sc *serverConn) slowPath(f rawFrame) bool {
	ctx, cancel := context.WithCancel(sc.ctx)
	if !sc.claim(f.reqID, cancel) {
		cancel()
		sc.srv.reqDone()
		// Refuse the reuse rather than overwrite: overwriting would
		// orphan the original request's cancel registration, leaking
		// its context and making it uncancelable. The original request
		// is untouched; only the duplicate frame fails.
		sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: id %d", wire.ErrDuplicateRequest, f.reqID), nil, UID{})
		return false
	}
	sc.enqueueTask(serverTask{sc: sc, ctx: ctx, cancel: cancel, reqID: f.reqID, op: f.op, payload: f.payload, buf: f.buf})
	return true
}

// claim registers cancel under reqID unless the id is already in
// flight on this connection.
func (sc *serverConn) claim(reqID uint64, cancel context.CancelFunc) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, dup := sc.inflight[reqID]; dup {
		return false
	}
	sc.inflight[reqID] = cancel
	return true
}

// release unregisters a request id. It runs before the response
// leaves: a client is free to reuse the id the moment it sees the
// response, and the read loop must not mistake that for a duplicate.
func (sc *serverConn) release(reqID uint64) {
	sc.mu.Lock()
	delete(sc.inflight, reqID)
	sc.mu.Unlock()
}

// enqueueTask hands a task to the worker pool, blocking when the pool
// is saturated — backpressure: this connection stops reading until a
// worker frees up. A dying connection aborts the handoff and releases
// everything the task held, so Close can never hang on a full queue.
func (sc *serverConn) enqueueTask(t serverTask) {
	select {
	case sc.srv.tasks <- t:
		return
	default:
	}
	select {
	case sc.srv.tasks <- t:
	case <-sc.ctx.Done():
		sc.dropTask(t)
	}
}

// dropTask releases a task that will never run (connection died
// before the pool accepted it).
func (sc *serverConn) dropTask(t serverTask) {
	if t.batch == nil {
		sc.release(t.reqID)
		t.cancel()
		sc.srv.reqDone()
		wire.PutFrameBuf(t.buf)
		return
	}
	for _, pf := range t.batch {
		sc.release(pf.reqID)
		sc.srv.reqDone()
		wire.PutFrameBuf(pf.buf)
	}
}

func (sc *serverConn) isClosed() bool { return sc.closed.Load() }

func (sc *serverConn) isAuthed() bool { return sc.authed.Load() }

// admit reserves an in-flight slot for a new request unless the
// server is draining. The check and the WaitGroup Add happen under
// the same lock Shutdown takes to set draining, so once Shutdown's
// Wait begins no further Add can slip in — which is both what keeps
// the drain contract (every admitted request finishes and flushes)
// and what makes the Add/Wait pair race-free.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.inflight.Add(1)
	s.met.inflight.Add(1)
	return true
}

// hello performs the version/auth handshake. Returns false when the
// connection must close (bad version or bad token).
func (sc *serverConn) hello(reqID uint64, payload []byte) bool {
	d := wire.NewDec(payload)
	version := d.U32()
	token := d.Str()
	if err := d.Err(); err != nil {
		sc.respondErr(reqID, wire.OpHello, err, nil, UID{})
		return false
	}
	if version != wire.ProtoVersion {
		sc.respondErr(reqID, wire.OpHello,
			fmt.Errorf("%w: protocol version %d, server speaks %d", wire.ErrCodec, version, wire.ProtoVersion), nil, UID{})
		return false
	}
	if sc.srv.opts.AuthToken != "" && token != sc.srv.opts.AuthToken {
		sc.respondErr(reqID, wire.OpHello, fmt.Errorf("%w: bad auth token", ErrAccessDenied), nil, UID{})
		return false
	}
	_ = sc.c.SetReadDeadline(time.Time{}) // as in newConn
	sc.authed.Store(true)
	sc.srv.met.reqs[wire.OpHello].Inc()
	e := wire.EncWith(wire.GetFrameBuf())
	e.U8(0)
	e.Str("forkbase/1")
	// Optional-capability bitmask; clients that predate it ignore the
	// trailing bytes, so this is compatible with ProtoVersion 1 peers.
	e.U32(sc.srv.features())
	sc.write(reqID, wire.OpHello, e.Bytes())
	return true
}

// handle executes one pipelined request on a pool worker.
func (sc *serverConn) handle(ctx context.Context, cancel context.CancelFunc, reqID uint64, op uint8, payload []byte) {
	start := time.Now()
	resp := sc.srv.dispatch(ctx, sc, reqID, op, payload)
	sc.srv.observe(sc, op, start, resp)
	sc.release(reqID)
	cancel()
	sc.write(reqID, op, resp)
	sc.srv.reqDone()
}

// clampResp downgrades an oversized response: the frame would make
// the client drop the whole connection (stream desync), failing its
// other in-flight requests; a typed per-request error fails only this
// one.
func (sc *serverConn) clampResp(payload []byte) []byte {
	if max := wire.MaxPayload(sc.srv.opts.MaxFrame); len(payload) > max {
		wire.PutFrameBuf(payload)
		return errPayload(fmt.Errorf("response of %d bytes exceeds the %d-byte frame cap", len(payload), max), nil, UID{})
	}
	return payload
}

// write frames one response and flushes it (or leaves it with an
// in-flight flusher). It takes ownership of payload, which must come
// from the frame pool (all response payloads do: okPayload, errPayload
// and hello build on pooled buffers).
func (sc *serverConn) write(reqID uint64, op uint8, payload []byte) {
	payload = sc.clampResp(payload)
	// Write failures are sticky in the frame writer and logged by its
	// error hook; the read loop (or close) notices the dead socket.
	_ = sc.fw.writeFrame(reqID, op, payload)
	wire.PutFrameBuf(payload)
}

// send corks one response in the frame writer without flushing; the
// read loop flushes at burst end. Ownership of payload transfers, as
// with write.
func (sc *serverConn) send(reqID uint64, op uint8, payload []byte) {
	payload = sc.clampResp(payload)
	_ = sc.fw.enqueue(reqID, op, payload)
	wire.PutFrameBuf(payload)
}

func (sc *serverConn) respondErr(reqID uint64, op uint8, err error, conflicts []Conflict, uid UID) {
	sc.write(reqID, op, errPayload(err, conflicts, uid))
}

// --- request dispatch -------------------------------------------------

// okPayload and errPayload build response payloads on pooled buffers;
// serverConn.write/send return them to the pool once framed.

func okPayload(fill func(e *wire.Enc)) []byte {
	e := wire.EncWith(wire.GetFrameBuf())
	e.U8(0)
	if fill != nil {
		fill(&e)
	}
	return e.Bytes()
}

func errPayload(err error, conflicts []Conflict, uid UID) []byte {
	e := wire.EncWith(wire.GetFrameBuf())
	e.U8(1)
	wire.EncodeError(&e, err, conflicts, uid)
	return e.Bytes()
}

// optsFromWire resolves a request's CallOptions into the option set
// the policy layer reads — including the user, which is what routes
// the request through the access controller.
func optsFromWire(w wire.CallOptions) (callOpts, error) {
	o := callOpts{
		branch:    w.Branch,
		branchSet: w.BranchSet,
		bases:     w.Bases,
		guard:     w.Guard,
		meta:      w.Meta,
		user:      w.User,
	}
	if w.Resolver != wire.ResolverNone {
		if o.resolver = wire.ResolverFromCode(w.Resolver); o.resolver == nil {
			return callOpts{}, fmt.Errorf("%w: unknown resolver code %d", ErrBadOptions, w.Resolver)
		}
	}
	return o, nil
}

// request is one decoded request as its handler sees it: options
// resolved, the decoder positioned after them. Handlers take it by
// value — the decoder included — so the call through the op table
// allocates nothing. sc is the originating connection: the chunk ops
// scope their GC shields to it, so a client that disconnects
// mid-negotiation releases whatever it had protected.
type request struct {
	ctx  context.Context
	sc   *serverConn
	id   uint64
	d    wire.Dec
	co   callOpts
	opts []Option
}

// opRow is one op of the served surface.
type opRow struct {
	// serve runs the request against the server and returns the
	// response payload.
	serve func(s *Server, r request) []byte
	// inline answers the op on the read loop when the backend is a
	// local *DB: point reads and metadata listings. Writes, merges,
	// history walks and value materialization keep the worker path —
	// they can block, and a blocked read loop stalls the whole
	// connection.
	inline bool
	// coalesce lets adjacent requests of the op run as one engine batch
	// when the backend is a local *DB (handlePut).
	coalesce bool
	// chunk marks the ops served from the backend's chunk store, which
	// only a local backend with chunk sync enabled has.
	chunk bool
}

// serverOps is the op table, indexed by op code. Hello and Cancel are
// connection-level and answered by the read loop itself;
// OpChunkWantPart is response-only. Neither has a row, and a request
// for an op without one gets a typed CodeProto error.
var serverOps = [wire.OpMax]opRow{
	wire.OpGet:          {serve: serveGet, inline: true},
	wire.OpPut:          {serve: servePut, coalesce: true},
	wire.OpApply:        {serve: serveApply},
	wire.OpFork:         {serve: serveFork},
	wire.OpMerge:        {serve: serveMerge},
	wire.OpTrack:        {serve: serveTrack},
	wire.OpDiff:         {serve: serveDiff},
	wire.OpListKeys:     {serve: serveListKeys, inline: true},
	wire.OpListBranches: {serve: serveListBranches, inline: true},
	wire.OpRenameBranch: {serve: serveRenameBranch},
	wire.OpRemoveBranch: {serve: serveRemoveBranch},
	wire.OpPin:          {serve: servePin},
	wire.OpUnpin:        {serve: serveUnpin},
	wire.OpGC:           {serve: serveGC},
	wire.OpValue:        {serve: serveValue},
	wire.OpStats:        {serve: serveStats, inline: true},
	wire.OpChunkHave:    {serve: serveChunkHave, chunk: true},
	wire.OpChunkWant:    {serve: serveChunkWant, chunk: true},
	wire.OpChunkSend:    {serve: serveChunkSend, chunk: true},
	wire.OpPutChunked:   {serve: servePutChunked, chunk: true},
	wire.OpServerStats:  {serve: serveServerStats},
}

// served reports whether op has a row in the op table.
func served(op uint8) bool { return wire.KnownOp(op) && serverOps[op].serve != nil }

// dispatch decodes one request's options and runs its op's handler,
// returning the response payload. Decode failures — truncated or
// garbage payloads inside intact frames — fail the request, never the
// process: every decoder is bounds-checked by construction. op has a
// row (the read loop refuses those that do not).
func (s *Server) dispatch(ctx context.Context, sc *serverConn, reqID uint64, op uint8, payload []byte) []byte {
	r := request{ctx: ctx, sc: sc, id: reqID, d: *wire.NewDec(payload)}
	co, err := optsFromWire(wire.DecodeCallOptions(&r.d))
	if err == nil {
		err = r.d.Err()
	}
	if err != nil {
		return fail(err)
	}
	row := &serverOps[op]
	if row.chunk && !s.chunkSync() {
		return fail(fmt.Errorf("%w: backend %T does not serve chunk-granular transfer", wire.ErrUnsupported, s.st))
	}
	r.co = co
	r.opts = co.options()
	return row.serve(s, r)
}

// fail is the error response of a request whose error carries no
// conflicts or uid.
func fail(err error) []byte { return errPayload(err, nil, UID{}) }

// reply is the response of a store call that returned err: the error,
// or success with a body filled by fill (nil for none).
func reply(err error, fill func(e *wire.Enc)) []byte {
	if err != nil {
		return fail(err)
	}
	return okPayload(fill)
}

func serveGet(s *Server, r request) []byte {
	key := r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	o, err := s.st.Get(r.ctx, key, r.opts...)
	return reply(err, func(e *wire.Enc) { wire.EncodeFObject(e, o) })
}

func servePut(s *Server, r request) []byte {
	key := r.d.Str()
	// Zero-copy decode: the value is consumed (its staged bytes copied
	// on ingest) before the worker recycles the frame buffer. The value
	// decoder escapes, so it gets a copy and r stays on the stack.
	d := r.d
	v, err := wire.DecodeValueRef(&d)
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return fail(err)
	}
	uid, err := s.st.Put(r.ctx, key, v, r.opts...)
	if err != nil {
		return errPayload(err, nil, uid)
	}
	return okPayload(func(e *wire.Enc) { e.UID(uid) })
}

func serveApply(s *Server, r request) []byte {
	n := r.d.Count(4)
	b := NewBatch()
	for i := 0; i < n; i++ {
		key := r.d.Str()
		po, err := optsFromWire(wire.DecodeCallOptions(&r.d))
		v, verr := wire.DecodeValueRef(&r.d)
		if err == nil {
			err = verr
		}
		if err == nil {
			err = r.d.Err()
		}
		if err != nil {
			return fail(err)
		}
		b.put(key, v, &po)
	}
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	uids, err := s.st.Apply(r.ctx, b, r.opts...)
	return reply(err, func(e *wire.Enc) { wire.EncodeUIDs(e, uids) })
}

func serveFork(s *Server, r request) []byte {
	key, newBranch := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.st.Fork(r.ctx, key, newBranch, r.opts...), nil)
}

func serveMerge(s *Server, r request) []byte {
	key, tgt := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	uid, conflicts, err := s.st.Merge(r.ctx, key, tgt, r.opts...)
	if err != nil {
		return errPayload(err, conflicts, uid)
	}
	return okPayload(func(e *wire.Enc) { e.UID(uid) })
}

func serveTrack(s *Server, r request) []byte {
	key := r.d.Str()
	from, to := int(r.d.I64()), int(r.d.I64())
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	hist, err := s.st.Track(r.ctx, key, from, to, r.opts...)
	return reply(err, func(e *wire.Enc) {
		e.U32(uint32(len(hist)))
		for _, o := range hist {
			wire.EncodeFObject(e, o)
		}
	})
}

func serveDiff(s *Server, r request) []byte {
	key := r.d.Str()
	a, b := r.d.UID(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	df, err := s.st.Diff(r.ctx, key, a, b, r.opts...)
	return reply(err, func(e *wire.Enc) { wire.EncodeDiff(e, df) })
}

func serveListKeys(s *Server, r request) []byte {
	keys, err := s.st.ListKeys(r.ctx, r.opts...)
	return reply(err, func(e *wire.Enc) {
		e.U32(uint32(len(keys)))
		for _, k := range keys {
			e.Str(k)
		}
	})
}

func serveListBranches(s *Server, r request) []byte {
	key := r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	bl, err := s.st.ListBranches(r.ctx, key, r.opts...)
	return reply(err, func(e *wire.Enc) {
		wire.EncodeTaggedBranches(e, bl.Tagged)
		wire.EncodeUIDs(e, bl.Untagged)
	})
}

func serveRenameBranch(s *Server, r request) []byte {
	key, br, newName := r.d.Str(), r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.st.RenameBranch(r.ctx, key, br, newName, r.opts...), nil)
}

func serveRemoveBranch(s *Server, r request) []byte {
	key, br := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.st.RemoveBranch(r.ctx, key, br, r.opts...), nil)
}

func servePin(s *Server, r request) []byte {
	key, uid := r.d.Str(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.st.Pin(r.ctx, key, uid, r.opts...), nil)
}

func serveUnpin(s *Server, r request) []byte {
	key, uid := r.d.Str(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.st.Unpin(r.ctx, key, uid, r.opts...), nil)
}

func serveGC(s *Server, r request) []byte {
	stats, err := s.st.GC(r.ctx, r.opts...)
	return reply(err, func(e *wire.Enc) { wire.EncodeGCStats(e, stats) })
}

func serveValue(s *Server, r request) []byte {
	key, uid := r.d.Str(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	// Only the user identity applies here: the version is named by uid,
	// and forwarding the caller's branch/base options into the internal
	// Get would redirect it to a different version (or trip
	// ErrBadOptions) — semantics the embedded Value does not have.
	asUser := callOpts{user: r.co.user}
	pinned := callOpts{user: r.co.user, bases: []UID{uid}}
	obj, err := s.st.Get(r.ctx, key, pinned.options()...)
	if err != nil {
		return fail(err)
	}
	v, err := s.st.Value(r.ctx, key, obj, asUser.options()...)
	if err != nil {
		return fail(err)
	}
	return okPayload2(func(e *wire.Enc) error { return wire.EncodeValue(e, v) })
}

func serveStats(s *Server, r request) []byte {
	if s.db == nil {
		return fail(fmt.Errorf("%w: backend %T has no storage counters", wire.ErrUnsupported, s.st))
	}
	stats := s.db.Stats()
	return okPayload(func(e *wire.Enc) { wire.EncodeStats(e, stats) })
}

func serveServerStats(s *Server, r request) []byte {
	snap := s.MetricsSnapshot()
	return okPayload(func(e *wire.Enc) { wire.EncodeSamples(e, snap) })
}

// The chunk-granular transfer ops. Three rules govern every one:
//
//  1. Admission is verified: a chunk enters the store only if its
//     bytes hash to the id it was claimed under. A mismatch — or any
//     undecodable chunk in the batch — fails the whole request before
//     anything is admitted, so corrupt uploads cost one request and
//     leave no trace.
//  2. Negotiated chunks are shielded: an id the server reported as
//     present (OpChunkHave) or admitted (OpChunkSend) becomes a
//     transient GC root scoped to this connection and the key being
//     written, because the client will rely on it when it commits.
//     That key's OpPutChunked releases the set once the put has run;
//     a dropped connection releases the rest.
//  3. Access is per key: every chunk op carries the routing key being
//     read or written and asks the policy layer (allow, policy.go) for
//     the verdict the materialized op would get — read on (key, "")
//     for a pull, write for an upload or commit. Within a granted key,
//     chunk ids act as capabilities — the server cannot cheaply prove
//     a content-addressed chunk "belongs" to a key, and does not try
//     (see README, trust model).

func serveChunkHave(s *Server, r request) []byte {
	key := r.d.Str()
	ids := wire.DecodeUIDs(&r.d)
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	// Have is the upload negotiation, so it needs write intent — a
	// read-only user learns nothing about what the store holds.
	if err := allow(s.db.acl, r.co.user, key, "", PermWrite); err != nil {
		return fail(err)
	}
	cs := s.db.eng.Store()
	bits := make([]bool, len(ids))
	var present []chunk.ID
	seen := make(map[chunk.ID]bool, len(ids))
	for i, id := range ids {
		if cs.Has(id) {
			bits[i] = true
			if !seen[id] {
				seen[id] = true
				present = append(present, id)
			}
		}
	}
	// The client will skip re-sending these; keep them alive until its
	// commit (or disconnect).
	r.sc.addShields(key, present)
	s.met.chunksync[csHave].Add(int64(len(ids) * chunk.IDSize))
	return okPayload(func(e *wire.Enc) { wire.EncodeBitmap(e, bits) })
}

func serveChunkWant(s *Server, r request) []byte {
	key := r.d.Str()
	ids := wire.DecodeUIDs(&r.d)
	flags := r.d.U8()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	if flags&^wire.WantFlagDeep != 0 {
		return fail(fmt.Errorf("%w: unknown want flags %#x", ErrBadOptions, flags))
	}
	if err := allow(s.db.acl, r.co.user, key, "", PermRead); err != nil {
		return fail(err)
	}
	return r.sc.streamWant(r.ctx, r.id, s.db.eng.Store(), ids, flags&wire.WantFlagDeep != 0)
}

func serveChunkSend(s *Server, r request) []byte {
	key := r.d.Str()
	frames := wire.DecodeChunkUpload(&r.d)
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	if err := allow(s.db.acl, r.co.user, key, "", PermWrite); err != nil {
		return fail(err)
	}
	// Verify the whole batch before admitting any of it.
	decoded := make([]*chunk.Chunk, 0, len(frames))
	var ids []chunk.ID
	seen := make(map[chunk.ID]bool, len(frames))
	for _, f := range frames {
		c, err := chunk.Decode(f.Bytes)
		if err != nil {
			return fail(fmt.Errorf("%w: undecodable chunk claimed as %s: %v", store.ErrCorrupt, f.ID.Short(), err))
		}
		if c.ID() != f.ID {
			return fail(fmt.Errorf("%w: chunk claimed as %s hashes to %s", store.ErrCorrupt, f.ID.Short(), c.ID().Short()))
		}
		decoded = append(decoded, c)
		if !seen[c.ID()] {
			seen[c.ID()] = true
			ids = append(ids, c.ID())
		}
	}
	// Shield before Put: a collection sweeping between the Put and the
	// commit must treat these as roots.
	r.sc.addShields(key, ids)
	cs := s.db.eng.Store()
	var stored, dups uint32
	var admitted int64
	for _, c := range decoded {
		dup, err := cs.Put(c)
		if err != nil {
			return fail(err)
		}
		if dup {
			dups++
		} else {
			stored++
			admitted += int64(c.Size())
		}
	}
	s.met.chunksync[csSend].Add(admitted)
	return okPayload(func(e *wire.Enc) {
		e.U32(stored)
		e.U32(dups)
	})
}

func servePutChunked(s *Server, r request) []byte {
	key := r.d.Str()
	vt := types.Type(r.d.U8())
	root := r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	kind, ok := types.KindOfType(vt)
	if !ok {
		return fail(fmt.Errorf("%w: type %v is not chunkable", ErrBadOptions, vt))
	}
	if err := allow(s.db.acl, r.co.user, key, "", PermWrite); err != nil {
		return fail(err)
	}
	// Load derives count and height by walking the root path — trusting
	// the client's claimed shape would let it commit a version whose
	// meta chunk misdescribes the tree.
	tree, err := postree.Load(s.db.eng.Store(), s.db.eng.Config(), kind, root)
	if err != nil {
		return fail(fmt.Errorf("chunked put of %s: %w", root.Short(), err))
	}
	// The tree must be complete before the commit. What the head this
	// put derives from already proves is not checked again; the
	// reference's root stays shielded until the put has run, because
	// nothing else keeps the nodes the check skipped alive once the
	// client no longer lists (and so shields) them itself.
	ref := s.referenceTree(key, &r.co, vt)
	if ref != nil {
		defer s.db.eng.UnshieldUIDs([]chunk.ID{ref.Root()})
	}
	if err := chunksync.Complete(tree, ref); err != nil {
		// Leave the negotiation's shields in place: the client can
		// finish the upload and retry; disconnect still releases them.
		return fail(fmt.Errorf("chunked put of %s: upload incomplete: %w", root.Short(), err))
	}
	v, _ := types.AttachValue(vt, tree)
	uid, err := s.st.Put(r.ctx, key, v, r.opts...)
	// Success or failure, the negotiation window is over: on success the
	// new version roots the chunks; on failure the client renegotiates
	// from OpChunkHave, which re-shields.
	r.sc.dropShields(key)
	if err != nil {
		return errPayload(err, nil, uid)
	}
	return okPayload(func(e *wire.Enc) { e.UID(uid) })
}

// referenceTree picks the committed tree a chunked put of key may be
// verified against (chunksync.Complete): the value of the version the
// put derives from — the WithBase uid, else the head of the target
// branch — when it has the same type. It returns nil when there is no
// such version, and also when the version is not a head of key at this
// moment: only a head is a collection root, and a version that merely
// loads may be one whose tree a collection has already partly taken.
//
// The returned tree's root is shielded and the caller releases it.
// Shield first, then ask whether the version is (still) a head: a
// collection that enumerated its roots before the shield saw the head,
// one that enumerates after sees the shield, and a RemoveBranch in
// between shows up as "not a head" and costs only the shortcut.
func (s *Server) referenceTree(key string, co *callOpts, vt types.Type) *postree.Tree {
	eng := s.db.eng
	var o *types.FObject
	var err error
	if base, ok := co.base(); ok {
		o, err = eng.GetUID(base)
	} else {
		o, err = eng.Get([]byte(key), co.branchOr(DefaultBranch))
	}
	if err != nil || o.VType != vt {
		return nil
	}
	kind, _ := types.KindOfType(vt)
	root, count, height, err := types.ParseChunkRef(o.Data)
	if err != nil || root.IsNil() {
		return nil
	}
	eng.ShieldUIDs([]chunk.ID{root})
	if !eng.IsHead([]byte(key), o.UID()) {
		eng.UnshieldUIDs([]chunk.ID{root})
		return nil
	}
	return postree.Attach(eng.Store(), eng.Config(), kind, root, count, height)
}

// wantPartTarget is the payload size a streamed Want aims for per
// OpChunkWantPart frame: large enough to amortize framing, small
// enough that the first part leaves the server long before the last
// chunk has been read from disk.
const wantPartTarget = 256 << 10

// streamWant answers one OpChunkWant request: chunks ship in bounded
// OpChunkWantPart frames as they are read, and the returned payload —
// written by the caller under op OpChunkWant — terminates the stream
// with the usual status byte, so a mid-stream failure (or an OpCancel)
// still costs exactly this request and nothing else on the connection.
// With deep the requested ids are POS-Tree roots whose whole reachable
// subtree is streamed — a cold read in one round trip. Ids the server
// does not hold are skipped either way (the client's pull sweep owns
// completeness).
func (sc *serverConn) streamWant(ctx context.Context, reqID uint64, cs store.Store, ids []chunk.ID, deep bool) []byte {
	target := wantPartTarget
	if max := wire.MaxPayload(sc.srv.opts.MaxFrame) / 2; max < target {
		target = max
	}
	var (
		part     []*chunk.Chunk
		partSize int
		streamed uint32
	)
	flushPart := func() {
		if len(part) == 0 {
			return
		}
		e := wire.EncWith(wire.GetFrameBuf())
		wire.EncodeChunkUpload(&e, part)
		sc.write(reqID, wire.OpChunkWantPart, e.Bytes())
		sc.srv.met.chunksync[csStream].Add(int64(partSize))
		part, partSize = part[:0], 0
	}
	queue := append([]chunk.ID(nil), ids...)
	seen := make(map[chunk.ID]bool, len(queue))
	for i := 0; i < len(queue); i++ {
		// Per-chunk cancellation: an OpCancel (or the client hanging
		// up) stops a long stream mid-way; the error frame returned
		// here still terminates it, so the consumer always sees a
		// final frame.
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		id := queue[i]
		if seen[id] {
			continue
		}
		seen[id] = true
		c, err := store.GetVerified(cs, id)
		if errors.Is(err, store.ErrNotFound) {
			// Ids the server does not hold are simply not streamed; the
			// client treats unanswered ids as absent.
			continue
		}
		if err != nil {
			return fail(err)
		}
		if partSize+c.Size() > target {
			flushPart()
		}
		part = append(part, c)
		partSize += c.Size()
		streamed++
		if deep && (c.Type() == chunk.TypeUIndex || c.Type() == chunk.TypeSIndex) {
			kids, err := postree.IndexChildIDs(c.Data())
			if err != nil {
				return fail(err)
			}
			queue = append(queue, kids...)
		}
	}
	flushPart()
	return okPayload(func(e *wire.Enc) { e.U32(streamed) })
}

// okPayload2 is okPayload for encoders that can fail mid-way (value
// materialization reads chunks); the failure downgrades the response
// to an error payload.
func okPayload2(fill func(e *wire.Enc) error) []byte {
	e := wire.EncWith(wire.GetFrameBuf())
	e.U8(0)
	if err := fill(&e); err != nil {
		wire.PutFrameBuf(e.Bytes())
		return errPayload(err, nil, UID{})
	}
	return e.Bytes()
}

// --- put coalescing ---------------------------------------------------

// nopCancel is the inflight registration of a coalesced put.
var nopCancel context.CancelFunc = func() {}

// maxPutBatch bounds one coalesced batch; past this the marginal
// amortization is nil and the per-batch bookkeeping slices grow.
const maxPutBatch = 64

// putFrame is one OpPut decoded through its key, awaiting batch
// execution; the value decode happens on the worker. payload and key
// context alias buf, which the batch owns until its responses flush.
type putFrame struct {
	reqID    uint64
	key      string
	co       wire.CallOptions
	valueOff int
	payload  []byte
	buf      []byte
}

// decodePutFrame splits an OpPut payload into its routing prefix and
// the offset where the value encoding starts.
func decodePutFrame(f rawFrame) (putFrame, bool) {
	d := wire.NewDec(f.payload)
	co := wire.DecodeCallOptions(d)
	key := d.Str()
	if d.Err() != nil {
		return putFrame{}, false
	}
	return putFrame{
		reqID:    f.reqID,
		key:      key,
		co:       co,
		valueOff: len(f.payload) - d.Rest(),
		payload:  f.payload,
		buf:      f.buf,
	}, true
}

// coalescible reports whether a decoded put can join a batch at all:
// no version bases (base puts have fork semantics the batch engine
// does not model) and a clean routing decode.
func coalescible(pf putFrame, ok bool) bool {
	return ok && len(pf.co.Bases) == 0
}

// handlePut serves one admitted OpPut. When more complete frames are
// already buffered behind it, adjacent coalescible puts — same user,
// distinct keys, no bases — are collected into a single worker task
// that runs them as one engine batch: one lock hold and one branch
// update per key, one response flush for the lot, with per-put errors
// so the batch is observationally identical to dispatching each put
// alone. A put that cannot join (or has nothing behind it) takes the
// normal slow path. Each collected put's id is claimed on the
// connection like a slow-path request's, under a shared no-op cancel
// (a batch cannot be cancelled put by put), so an id already in
// flight — or earlier in the same batch — cannot join and the slow
// path refuses it.
func (sc *serverConn) handlePut(f rawFrame) (keep bool, carry *rawFrame, exit bool) {
	first, ok := decodePutFrame(f)
	if !coalescible(first, ok) || !wire.FrameBuffered(sc.br) || !sc.claim(first.reqID, nopCancel) {
		return sc.slowPath(f), nil, false
	}
	batch := []putFrame{first}
	keys := map[string]bool{first.key: true}
	for len(batch) < maxPutBatch && wire.FrameBuffered(sc.br) {
		nf, err := sc.readFrame()
		if err != nil {
			// A framing violation kills the connection, but the puts
			// already collected were admitted and must still execute
			// (and flush) under the drain contract.
			wire.PutFrameBuf(nf.buf)
			if !errors.Is(err, io.EOF) && !sc.isClosed() {
				sc.srv.logf("forkserved: %s: %v", sc.c.RemoteAddr(), err)
			}
			exit = true
			break
		}
		if nf.op != wire.OpPut {
			// Not a put: hand it back to the read loop, in order.
			carry = &nf
			break
		}
		if !sc.srv.admit() {
			sc.respondErr(nf.reqID, nf.op, ErrServerClosed, nil, UID{})
			wire.PutFrameBuf(nf.buf)
			break
		}
		pf, ok := decodePutFrame(nf)
		if !coalescible(pf, ok) || pf.co.User != first.co.User || keys[pf.key] || !sc.claim(pf.reqID, nopCancel) {
			// Cannot join (different identity, duplicate key — the
			// engine batch would chain same-key puts, changing their
			// guard semantics — base/undecodable put, or an id in
			// flight): dispatch it alone on the worker pool and stop
			// collecting.
			if !sc.slowPath(nf) {
				wire.PutFrameBuf(nf.buf)
			}
			break
		}
		keys[pf.key] = true
		batch = append(batch, pf)
	}
	if len(batch) == 1 {
		sc.release(first.reqID)
		return sc.slowPath(f), carry, exit
	}
	sc.enqueueTask(serverTask{sc: sc, user: first.co.User, batch: batch})
	return true, carry, exit
}

// coalescedPut turns one collected OpPut into its engine batch entry
// exactly as the slow path would treat it alone: resolve the options,
// decode the value, ask the policy layer for the write verdict.
func (s *Server) coalescedPut(user string, pf putFrame) (core.BatchPut, error) {
	o, err := optsFromWire(pf.co)
	if err != nil {
		return core.BatchPut{}, err
	}
	v, err := wire.DecodeValueRef(wire.NewDec(pf.payload[pf.valueOff:]))
	if err != nil {
		return core.BatchPut{}, err
	}
	p, err := batchPut(pf.key, v, &o)
	if err != nil {
		return core.BatchPut{}, err
	}
	return p, allow(s.db.acl, user, pf.key, p.Branch, PermWrite)
}

// runPutBatch executes one coalesced batch on a pool worker: decode
// each value (zero-copy — the engine copies on ingest) and check each
// put's write permission, one batched engine commit of the admitted
// puts with per-put error isolation, then all responses in one flush.
func (sc *serverConn) runPutBatch(user string, batch []putFrame) {
	start := time.Now()
	sc.srv.met.putBatch.Observe(int64(len(batch)))
	resp := make([][]byte, len(batch))
	puts := make([]core.BatchPut, 0, len(batch))
	idx := make([]int, 0, len(batch))
	for i, pf := range batch {
		p, err := sc.srv.coalescedPut(user, pf)
		if err != nil {
			resp[i] = errPayload(err, nil, UID{})
			continue
		}
		puts = append(puts, p)
		idx = append(idx, i)
	}
	// One failing put does not abort the others: each coalesced wire
	// request gets exactly the result it would have gotten alone.
	uids, errs := sc.srv.db.eng.PutBatchIndependent(sc.ctx, puts)
	for j, i := range idx {
		if errs[j] != nil {
			resp[i] = errPayload(errs[j], nil, UID{})
		} else {
			uid := uids[j]
			resp[i] = okPayload(func(e *wire.Enc) { e.UID(uid) })
		}
	}
	elapsed := time.Since(start)
	for i, pf := range batch {
		// Each coalesced put is observed as its own OpPut — the batch
		// is an execution detail, invisible in the per-op series — with
		// the batch's elapsed time as every member's latency (they did
		// all wait for the batch).
		sc.srv.observeDur(sc, wire.OpPut, elapsed, resp[i])
		sc.release(pf.reqID)
		sc.send(pf.reqID, wire.OpPut, resp[i])
		wire.PutFrameBuf(pf.buf)
	}
	sc.fw.flush()
	for range batch {
		sc.srv.reqDone()
	}
}
