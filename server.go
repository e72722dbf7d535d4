package forkbase

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
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
	// means wire.DefaultMaxFrame (256 MiB). Each client learns it in the
	// Hello and fails a larger request before sending it, so a value
	// shipped whole in one Put must fit in one frame.
	MaxFrame int
	// Logf, when set, receives connection-level diagnostics (framing
	// violations, disconnects). Nil discards them.
	Logf func(format string, args ...any)
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
// requests per connection, each answered as it completes. A *DB,
// ClusterClient or RemoteStore is called with the options each request
// decoded, as they are; any other Store through its public methods.
//
//	srv := forkbase.NewServer(db, forkbase.ServerOptions{})
//	ln, _ := net.Listen("tcp", ":7707")
//	go srv.Serve(ln)
//	...
//	srv.Shutdown(ctx) // graceful: drain in-flight, refuse new work
type Server struct {
	// be is the served store, which every store op calls; st is the
	// same store as NewServer was given, which error messages name.
	be   backend
	st   Store
	opts ServerOptions

	// db is the served store when it is a local embedded *DB, nil for
	// any other (ClusterClient, RemoteStore, a wrapper). What needs the
	// engine or chunk store behind the Store API keys off it: a local
	// backend serves the chunk-granular ops and storage counters, and
	// answers small reads and small Puts inline on the read loop, a run
	// of Puts under one journal scope. Proxies get none of that — they
	// have no local chunk store to negotiate against, and their calls
	// may block on a downstream round-trip, which inline would turn
	// into a stall for every pipelined request behind it on the
	// connection.
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
//
// A *DB, *ClusterClient or *RemoteStore is served directly, with no
// option list packed per request. The match is on the exact type: a
// Store that embeds one of them and overrides a method is any other
// Store, adapted once and reached through its methods, overrides
// included.
func NewServer(st Store, opts ServerOptions) *Server {
	if opts.MaxFrame <= 0 || opts.MaxFrame > math.MaxUint32 {
		opts.MaxFrame = wire.DefaultMaxFrame
	}
	s := &Server{st: st, opts: opts, conns: make(map[*serverConn]struct{})}
	switch b := st.(type) {
	case *DB:
		s.be, s.db = b, b
	case *ClusterClient:
		s.be = b
	case *RemoteStore:
		s.be = b
	default:
		s.be = storeBackend{st}
	}
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
// request.
type serverTask struct {
	sc      *serverConn
	ctx     context.Context
	cancel  context.CancelFunc
	reqID   uint64
	op      uint8
	payload []byte
	buf     []byte // owning frame buffer; payload aliases it
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		t.sc.handle(t.ctx, t.cancel, t.reqID, t.op, t.payload)
		wire.PutFrameBuf(t.buf)
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

	// user is the user string the connection's last request decoded,
	// which the next one naming it reuses (read loop and workers alike).
	user atomic.Value

	// deferredDone counts inline responses enqueued but not yet
	// flushed; their inflight slots are released only after the burst
	// flush, preserving Shutdown's "every admitted request's response
	// is flushed" contract. Read-loop-only, no locking.
	deferredDone int

	// scope and puts are the open run of small Puts: their head
	// records join scope, and their answers and ids are held in puts
	// until scope's End (runPut, endPuts). Read-loop-only.
	scope *branch.Batch
	puts  []heldPut

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
	}, sc.held)
	// A deadline that cannot be set is on a socket already dead, which
	// the read loop finds out on its first read.
	_ = c.SetReadDeadline(time.Now().Add(helloTimeout))
	return sc
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
// the loop ends the open run of Puts, flushes once and releases the
// corked requests' inflight slots. One syscall per burst, in each
// direction, and one journal write.
func (sc *serverConn) readLoop() {
	defer sc.srv.connWG.Done()
	defer sc.close()
	defer sc.releaseDeferred()
	defer sc.endPuts()
	for {
		f, err := sc.readFrame()
		if err != nil {
			wire.PutFrameBuf(f.buf)
			if !errors.Is(err, io.EOF) && !sc.isClosed() {
				sc.srv.logf("forkserved: %s: %v", sc.c.RemoteAddr(), err)
			}
			return
		}
		keep, exit := sc.processFrame(f)
		if !keep {
			wire.PutFrameBuf(f.buf)
		}
		if exit {
			return
		}
		if !wire.FrameBuffered(sc.br) {
			sc.endPuts()
			sc.fw.flush()
			sc.releaseDeferred()
		}
	}
}

// helloMaxFrame caps both frames of a Hello. The frame buffer is
// allocated from the length prefix alone, so without it a peer that
// has not said Hello could make the server allocate
// ServerOptions.MaxFrame with four bytes.
const helloMaxFrame = 64 << 10

// helloTimeout bounds how long an accepted connection may take to
// complete its Hello. Without it a peer that connects and never speaks
// holds a read loop and its buffer forever. Once the Hello succeeds the
// read deadline is cleared: an authenticated connection may idle.
var helloTimeout = 10 * time.Second

func (sc *serverConn) readFrame() (rawFrame, error) {
	var f rawFrame
	var err error
	maxFrame := sc.srv.opts.MaxFrame
	if !sc.isAuthed() {
		maxFrame = min(maxFrame, helloMaxFrame)
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
// of f.buf moved to a worker task; exit ends the read loop.
func (sc *serverConn) processFrame(f rawFrame) (keep, exit bool) {
	smallPut := sc.srv.db != nil && f.op == wire.OpPut && len(f.payload) < bigPayload
	if !smallPut {
		// No other frame is served inside a run of Puts: a request
		// behind the run sees its heads only once they are durable.
		sc.endPuts()
	}
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
			return false, true
		}
	case !sc.isAuthed():
		// Requests before a successful Hello are a protocol
		// violation; refuse and hang up.
		sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: hello required before requests", ErrAccessDenied), nil, UID{})
		return false, true
	case !served(f.op):
		sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: op %d is not a request this server serves", wire.ErrCodec, f.op), nil, UID{})
	case !sc.srv.admit():
		sc.respondErr(f.reqID, f.op, ErrServerClosed, nil, UID{})
	case smallPut:
		sc.runPut(f)
	case sc.srv.db != nil && serverOps[f.op].inline:
		// The small-op fast path: answer right here on the read loop —
		// no goroutine, no context allocation, no cancel registration
		// (OpCancel arrives on this same loop, so it cannot race an op
		// that completes before the next read) — and cork the response
		// for the burst flush. The inline write, a Send, still claims
		// its id, so one reusing an id in flight on a worker is refused
		// as on the slow path; the cancel is a no-op, since no OpCancel
		// is read until the write returns.
		write := f.op == wire.OpChunkSend
		if write && !sc.claim(f.reqID, nopCancel) {
			sc.refuseDuplicate(f)
			break
		}
		start := time.Now()
		resp := sc.srv.dispatch(sc.ctx, sc, nil, f.reqID, f.op, f.payload)
		sc.srv.observe(sc, f.op, start, resp)
		if write {
			sc.release(f.reqID)
		}
		sc.send(f.reqID, f.op, resp)
		sc.deferredDone++
	default:
		return sc.slowPath(f), false
	}
	return false, false
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
		sc.refuseDuplicate(f)
		return false
	}
	sc.enqueueTask(serverTask{sc: sc, ctx: ctx, cancel: cancel, reqID: f.reqID, op: f.op, payload: f.payload, buf: f.buf})
	return true
}

// refuseDuplicate answers an admitted request whose id is already in
// flight. Refuse the reuse rather than overwrite: overwriting would
// orphan the original request's cancel registration, leaking its
// context and making it uncancelable. The original request is
// untouched; only the duplicate frame fails.
func (sc *serverConn) refuseDuplicate(f rawFrame) {
	sc.srv.reqDone()
	sc.respondErr(f.reqID, f.op, fmt.Errorf("%w: id %d", wire.ErrDuplicateRequest, f.reqID), nil, UID{})
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

// held reports whether a request of this connection still holds its
// id — on a worker, in an open run of Puts or mid-Send. A response
// releases its own id before it is written, so any id left is another
// request.
func (sc *serverConn) held() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.inflight) > 0
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
	sc.release(t.reqID)
	t.cancel()
	sc.srv.reqDone()
	wire.PutFrameBuf(t.buf)
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

// hello performs the version/auth handshake and answers it with the
// banner, the feature mask and the frame cap. Returns false when the
// connection must close (bad version or bad token).
func (sc *serverConn) hello(reqID uint64, payload []byte) bool {
	d := wire.NewDec(payload)
	version, token := d.U32(), d.Str()
	err := d.Err()
	switch {
	case err != nil:
	case version != wire.ProtoVersion:
		err = fmt.Errorf("%w: protocol version %d, server speaks %d", wire.ErrCodec, version, wire.ProtoVersion)
	case sc.srv.opts.AuthToken != "" && token != sc.srv.opts.AuthToken:
		err = fmt.Errorf("%w: bad auth token", ErrAccessDenied)
	}
	if err != nil {
		sc.respondErr(reqID, wire.OpHello, err, nil, UID{})
		return false
	}
	_ = sc.c.SetReadDeadline(time.Time{}) // as in newConn
	sc.authed.Store(true)
	sc.srv.met.reqs[wire.OpHello].Inc()
	var features uint32
	if sc.srv.db != nil {
		features = wire.FeatureChunkSync
	}
	sc.write(reqID, wire.OpHello, okPayload(func(e *wire.Enc) {
		e.Str("forkbase/2")
		e.U32(features)
		e.U32(uint32(sc.srv.opts.MaxFrame))
	}))
	return true
}

// handle executes one pipelined request on a pool worker.
func (sc *serverConn) handle(ctx context.Context, cancel context.CancelFunc, reqID uint64, op uint8, payload []byte) {
	start := time.Now()
	resp := sc.srv.dispatch(ctx, sc, nil, reqID, op, payload)
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
// the contract reads: the wire form as it came, and the built-in
// resolver its code names.
func optsFromWire(w wire.CallOptions) (callOpts, error) {
	o := callOpts{CallOptions: w}
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
// mid-negotiation releases whatever it had protected. scope is the
// journal scope of a Put answered in a run on the read loop, nil
// anywhere else.
type request struct {
	ctx   context.Context
	sc    *serverConn
	scope *branch.Batch
	id    uint64
	op    uint8
	d     wire.Dec
	co    callOpts
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
	// connection. OpChunkSend is one write here, for ordering: it is
	// applied before the next frame is read, so a commit pipelined
	// behind it finds its chunks (wire.FeatureChunkSync). Requests
	// multiplexed behind a Send wait for it; one Send is at most the
	// client's send batch.
	// OpPut needs no flag: one under bigPayload is always answered on
	// the read loop (runPut), with no worker handoff, and a large one
	// keeps the worker. The trade is head of line: a request arriving
	// while a put commits, behind a contended key stripe or an fsync,
	// waits for it.
	inline bool
	// chunk marks the ops served from the backend's chunk store, which
	// only a local backend has.
	chunk bool
}

// serverOps is the op table, indexed by op code. Hello and Cancel are
// connection-level and answered by the read loop itself;
// OpChunkWantPart is response-only. Neither has a row, and a request
// for an op without one gets a typed CodeProto error.
var serverOps = [wire.OpMax]opRow{
	wire.OpGet:          {serve: serveGet, inline: true},
	wire.OpPut:          {serve: servePut},
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
	wire.OpUnpin:        {serve: servePin},
	wire.OpGC:           {serve: serveGC},
	wire.OpValue:        {serve: serveValue},
	wire.OpChunkHave:    {serve: serveChunkHave, chunk: true},
	wire.OpChunkWant:    {serve: serveChunkWant, chunk: true},
	wire.OpChunkSend:    {serve: serveChunkSend, inline: true, chunk: true},
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
func (s *Server) dispatch(ctx context.Context, sc *serverConn, scope *branch.Batch, reqID uint64, op uint8, payload []byte) []byte {
	r := request{ctx: ctx, sc: sc, scope: scope, id: reqID, op: op, d: *wire.NewDec(payload)}
	last, _ := sc.user.Load().(string)
	w := wire.DecodeCallOptions(&r.d, last)
	if w.User != last {
		sc.user.Store(w.User)
	}
	co, err := optsFromWire(w)
	if err == nil {
		err = r.d.Err()
	}
	if err != nil {
		return fail(err)
	}
	row := &serverOps[op]
	if row.chunk && s.db == nil {
		return fail(fmt.Errorf("%w: backend %T does not serve chunk-granular transfer", wire.ErrUnsupported, s.st))
	}
	r.co = co
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
	o, err := s.be.get(r.ctx, key, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeFObject(e, o) })
}

func servePut(s *Server, r request) []byte {
	key := r.d.Str()
	// Zero-copy decode: the value is consumed (its staged bytes copied
	// on ingest) before the frame buffer is recycled.
	v, err := wire.DecodeValueRef(&r.d)
	if err == nil {
		err = r.d.Err()
	}
	if err != nil {
		return fail(err)
	}
	uid, err := s.be.put(r.ctx, key, v, r.scope, r.co)
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
	uids, err := s.be.apply(r.ctx, b, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeUIDs(e, uids) })
}

func serveFork(s *Server, r request) []byte {
	key, newBranch := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.be.fork(r.ctx, key, newBranch, r.co), nil)
}

func serveMerge(s *Server, r request) []byte {
	key, tgt := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	uid, conflicts, err := s.be.merge(r.ctx, key, tgt, r.co)
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
	hist, err := s.be.track(r.ctx, key, from, to, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeFObjects(e, hist) })
}

func serveDiff(s *Server, r request) []byte {
	key := r.d.Str()
	a, b := r.d.UID(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	df, err := s.be.diff(r.ctx, key, a, b, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeDiff(e, df) })
}

func serveListKeys(s *Server, r request) []byte {
	keys, err := s.be.listKeys(r.ctx, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeStrings(e, keys) })
}

func serveListBranches(s *Server, r request) []byte {
	key := r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	bl, err := s.be.listBranches(r.ctx, key, r.co)
	return reply(err, func(e *wire.Enc) { wire.EncodeBranchList(e, bl.Tagged, bl.Untagged) })
}

func serveRenameBranch(s *Server, r request) []byte {
	key, br, newName := r.d.Str(), r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.be.renameBranch(r.ctx, key, br, newName, r.co), nil)
}

func serveRemoveBranch(s *Server, r request) []byte {
	key, br := r.d.Str(), r.d.Str()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.be.removeBranch(r.ctx, key, br, r.co), nil)
}

// servePin serves OpPin and OpUnpin.
func servePin(s *Server, r request) []byte {
	key, uid := r.d.Str(), r.d.UID()
	if err := r.d.Err(); err != nil {
		return fail(err)
	}
	return reply(s.be.pin(r.ctx, key, uid, r.op == wire.OpPin, r.co), nil)
}

func serveGC(s *Server, r request) []byte {
	stats, err := s.be.gc(r.ctx, r.co)
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
	obj, err := s.be.get(r.ctx, key, callOpts{CallOptions: wire.CallOptions{User: r.co.User, Bases: []UID{uid}}})
	if err != nil {
		return fail(err)
	}
	v, err := s.be.value(r.ctx, key, obj, callOpts{CallOptions: wire.CallOptions{User: r.co.User}})
	if err != nil {
		return fail(err)
	}
	// Encoding materializes the value, which reads chunks and can fail
	// mid-way; the response is then the error.
	e := wire.EncWith(wire.GetFrameBuf())
	e.U8(0)
	if err := wire.EncodeValue(&e, v); err != nil {
		wire.PutFrameBuf(e.Bytes())
		return fail(err)
	}
	return e.Bytes()
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
	if err := allow(s.db.acl, r.co.User, key, "", PermWrite); err != nil {
		return fail(err)
	}
	// "Present" tells the client not to send the chunk, so it must hold
	// until the commit; the shields below hold it for every collection
	// that reads its roots after them. A collection that read them
	// earlier is covered by the store's protection window instead: open
	// one (it nests with a running collection's, so the protection
	// outlives this call while that collection runs), protect every
	// asked id, and only then ask the store that sweeps — not a cache
	// above it — what it holds. An id a sweep took before the
	// protection is answered absent, and one it had not reached yet it
	// keeps.
	has := s.db.eng.Store().Has
	if col, _, ok := store.AsCollectable(s.db.eng.Store()); ok {
		col.BeginGC()
		defer col.EndGC()
		col.Protect(ids)
		has = col.Has
	}
	bits := make([]bool, len(ids))
	var present []chunk.ID
	seen := make(map[chunk.ID]bool, len(ids))
	for i, id := range ids {
		if has(id) {
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
	if err := allow(s.db.acl, r.co.User, key, "", PermRead); err != nil {
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
	if err := allow(s.db.acl, r.co.User, key, "", PermWrite); err != nil {
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
	if err := allow(s.db.acl, r.co.User, key, "", PermWrite); err != nil {
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
	uid, err := s.be.put(r.ctx, key, v, nil, r.co)
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
	target := min(wantPartTarget, wire.MaxPayload(sc.srv.opts.MaxFrame)/2)
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

// --- runs of small Puts ---------------------------------------------

// nopCancel is the inflight registration of a Put or a Send answered
// on the read loop: neither can be cancelled once it runs.
var nopCancel context.CancelFunc = func() {}

// maxPutRun bounds the Puts of one run, and with it how long their
// answers wait for its End.
const maxPutRun = 64

// heldPut is a Put of the open run whose answer waits for the run's
// End.
type heldPut struct {
	reqID uint64
	start time.Time
	resp  []byte
}

// runPut answers one admitted small Put on the read loop, in the
// connection's open run of Puts, opening one if none is open. Its head
// record joins the run's journal scope; its answer and its id are held
// until the scope ends (endPuts), so a later frame reusing the id is
// refused as a duplicate. The answer is not corked in the frame writer
// meanwhile: a worker's write on this connection flushes what is
// corked, and that would show the answer before its record is durable.
func (sc *serverConn) runPut(f rawFrame) {
	if !sc.claim(f.reqID, nopCancel) {
		sc.refuseDuplicate(f)
		return
	}
	if len(sc.puts) == 0 {
		sc.scope = sc.srv.db.eng.Begin()
	}
	start := time.Now()
	resp := sc.srv.dispatch(sc.ctx, sc, sc.scope, f.reqID, f.op, f.payload)
	sc.puts = append(sc.puts, heldPut{reqID: f.reqID, start: start, resp: resp})
	if len(sc.puts) == maxPutRun {
		sc.endPuts()
	}
}

// endPuts ends the open run of Puts, if any: End writes the run's head
// records (one barrier, one write, one fsync under MetaSync), and only
// then are its ids released and its answers corked for the burst
// flush. If End fails, every Put of the run that had succeeded fails
// with End's error and its uid: the head moved, but its record may not
// be durable, as a lone Put reports it.
func (sc *serverConn) endPuts() {
	if len(sc.puts) == 0 {
		return
	}
	err := sc.scope.End()
	for i, p := range sc.puts {
		resp := p.resp
		if err != nil && resp[0] == 0 {
			uid := wire.NewDec(resp[1:]).UID()
			wire.PutFrameBuf(resp)
			resp = errPayload(err, nil, uid)
		}
		sc.srv.observe(sc, wire.OpPut, p.start, resp)
		sc.release(p.reqID)
		sc.send(p.reqID, wire.OpPut, resp)
		sc.deferredDone++
		sc.puts[i] = heldPut{}
	}
	sc.puts, sc.scope = sc.puts[:0], nil
}
