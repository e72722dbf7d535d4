package forkbase_test

// Network-serving tests: the wire protocol's failure modes (malformed
// frames, garbage op codes, oversized lengths, mid-request
// disconnects), graceful shutdown, cancel propagation and goroutine
// hygiene. The functional surface is covered by the conformance
// suites, which run every scenario against a live loopback server.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/wire"
)

// startServer serves backend on a loopback listener and returns the
// address plus the server handle for shutdown assertions.
func startServer(t *testing.T, backend forkbase.Store, opts forkbase.ServerOptions) (string, *forkbase.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := forkbase.NewServer(backend, opts)
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	return ln.Addr().String(), srv
}

// TestRemoteTortureMalformedFrames throws every class of wire garbage
// at a live server and, after each attack, proves a healthy client on
// ANOTHER connection still gets served. Nothing here may panic the
// server: a framing violation costs the offending connection only.
func TestRemoteTortureMalformedFrames(t *testing.T) {
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	healthy, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	ctx := context.Background()

	checkHealthy := func(attack string) {
		t.Helper()
		key := fmt.Sprintf("k-%s", attack)
		uid, err := healthy.Put(ctx, key, forkbase.String("alive"))
		if err != nil {
			t.Fatalf("after %s: healthy put: %v", attack, err)
		}
		o, err := healthy.Get(ctx, key)
		if err != nil || o.UID() != uid {
			t.Fatalf("after %s: healthy get: %v", attack, err)
		}
	}

	raw := func(t *testing.T) net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// hello authenticates a raw connection so post-handshake garbage
	// is exercised too.
	hello := func(t *testing.T, c net.Conn) {
		t.Helper()
		var e wire.Enc
		e.U32(wire.ProtoVersion)
		e.Str("")
		if err := wire.WriteFrame(c, 1, wire.OpHello, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := wire.ReadFrame(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	expectClosed := func(t *testing.T, c net.Conn) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		for {
			if _, err := c.Read(buf); err != nil {
				if errors.Is(err, io.EOF) || strings.Contains(err.Error(), "reset") {
					return
				}
				t.Fatalf("connection not closed: %v", err)
			}
		}
	}

	t.Run("RandomGarbage", func(t *testing.T) {
		c := raw(t)
		// An absurd length prefix followed by noise.
		c.Write([]byte("\xff\xff\xff\xffnonsense stream that never frames"))
		expectClosed(t, c)
		checkHealthy("random-garbage")
	})
	t.Run("OversizedLength", func(t *testing.T) {
		c := raw(t)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(wire.DefaultMaxFrame+1))
		c.Write(hdr[:])
		expectClosed(t, c)
		checkHealthy("oversized-length")
	})
	t.Run("TruncatedFrame", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		// A frame claiming 100 bytes, delivering 20, then hanging up.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		c.Write(hdr[:])
		c.Write(make([]byte, 20))
		c.Close()
		checkHealthy("truncated-frame")
	})
	t.Run("BadCRC", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		frame := wire.AppendFrame(nil, 7, wire.OpListKeys, okStatsOpts())
		frame[len(frame)-1] ^= 0xff // corrupt the crc
		c.Write(frame)
		expectClosed(t, c)
		checkHealthy("bad-crc")
	})
	t.Run("GarbageOpCode", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		// Well-framed unknown ops get typed errors; the connection
		// SURVIVES and later serves a real request.
		for _, op := range []uint8{0, 99, 200, 255} {
			if err := wire.WriteFrame(c, uint64(op)+10, op, nil); err != nil {
				t.Fatal(err)
			}
			_, _, payload, err := wire.ReadFrame(c, 0)
			if err != nil {
				t.Fatalf("op %d killed the connection: %v", op, err)
			}
			if len(payload) == 0 || payload[0] != 1 {
				t.Fatalf("op %d: expected error response", op)
			}
		}
		if err := wire.WriteFrame(c, 1000, wire.OpListKeys, okStatsOpts()); err != nil {
			t.Fatal(err)
		}
		_, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil || len(payload) == 0 || payload[0] != 0 {
			t.Fatalf("connection unusable after garbage ops: %v", err)
		}
		checkHealthy("garbage-op")
	})
	t.Run("GarbagePayload", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		// A known op with an undecodable payload fails the request,
		// not the connection.
		if err := wire.WriteFrame(c, 44, wire.OpGet, []byte{0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		_, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil || len(payload) == 0 || payload[0] != 1 {
			t.Fatalf("garbage payload: %v", err)
		}
		checkHealthy("garbage-payload")
	})
	t.Run("TupleFieldCountBomb", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		// A Put of a Tuple whose four bytes claim 2^31-1 fields: the
		// count used to size an allocation before a byte of it was
		// checked, and the out-of-memory abort that followed is not a
		// panic any recover catches. It is a codec error, for this
		// request only.
		var e wire.Enc
		wire.EncodeCallOptions(&e, wire.CallOptions{})
		e.Str("k")
		e.U8(uint8(forkbase.Tuple(nil).Type()))
		e.Blob([]byte{0xff, 0xff, 0xff, 0x7f})
		if err := wire.WriteFrame(c, 45, wire.OpPut, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		_, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil || len(payload) == 0 || payload[0] != 1 {
			t.Fatalf("tuple bomb: response %x, err %v; want an error response", payload, err)
		}
		if ep, derr := wire.DecodeError(wire.NewDec(payload[1:])); derr != nil || !errors.Is(ep.Err, wire.ErrCodec) {
			t.Fatalf("tuple bomb answered %+v (%v), want ErrCodec", ep, derr)
		}
		// The same connection keeps serving.
		if err := wire.WriteFrame(c, 46, wire.OpListKeys, okStatsOpts()); err != nil {
			t.Fatal(err)
		}
		if _, _, payload, err := wire.ReadFrame(c, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
			t.Fatalf("connection unusable after the tuple bomb: %v", err)
		}
		checkHealthy("tuple-bomb")
	})
	t.Run("RequestBeforeHello", func(t *testing.T) {
		c := raw(t)
		if err := wire.WriteFrame(c, 5, wire.OpListKeys, okStatsOpts()); err != nil {
			t.Fatal(err)
		}
		// One error response, then the server hangs up.
		_, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil || len(payload) == 0 || payload[0] != 1 {
			t.Fatalf("pre-hello request: %v", err)
		}
		expectClosed(t, c)
		checkHealthy("pre-hello")
	})
	t.Run("ResponseOnlyOp", func(t *testing.T) {
		c := raw(t)
		hello(t, c)
		// OpChunkWantPart only ever travels server to client; as a
		// request it is a typed protocol error for that request alone.
		if err := wire.WriteFrame(c, 47, wire.OpChunkWantPart, okStatsOpts()); err != nil {
			t.Fatal(err)
		}
		reqID, op, payload, err := wire.ReadFrame(c, 0)
		if err != nil || reqID != 47 || op != wire.OpChunkWantPart || len(payload) == 0 || payload[0] != 1 {
			t.Fatalf("want-part request: id %d op %d payload %x err %v; want an error response", reqID, op, payload, err)
		}
		if ep, derr := wire.DecodeError(wire.NewDec(payload[1:])); derr != nil || !errors.Is(ep.Err, wire.ErrCodec) {
			t.Fatalf("want-part request answered %+v (%v), want ErrCodec", ep, derr)
		}
		if err := wire.WriteFrame(c, 48, wire.OpListKeys, okStatsOpts()); err != nil {
			t.Fatal(err)
		}
		if _, _, payload, err := wire.ReadFrame(c, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
			t.Fatalf("connection unusable after a want-part request: %v", err)
		}
		checkHealthy("response-only-op")
	})
	t.Run("MidRequestDisconnect", func(t *testing.T) {
		// A full valid request whose connection dies before the
		// response: the handler must abort via ctx, not linger.
		gate := make(chan struct{})
		bs := newBlockingStore(forkbase.Open(), gate)
		addr2, _ := startServer(t, bs, forkbase.ServerOptions{})
		rc, err := forkbase.Dial(addr2, forkbase.RemoteConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Put(context.Background(), "k", forkbase.String("v")); err != nil {
			t.Fatal(err)
		}
		bs.block.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := rc.Get(context.Background(), "k")
			done <- err
		}()
		<-bs.entered // the handler is inside Get
		rc.Close()   // mid-request disconnect
		if err := <-done; err == nil {
			t.Fatal("get survived its connection")
		}
		select {
		case <-bs.aborted: // handler observed ctx cancellation
		case <-time.After(5 * time.Second):
			t.Fatal("server handler not cancelled by disconnect")
		}
		close(gate)
		checkHealthy("mid-request-disconnect")
	})
}

// TestRemotePreHelloFrameCap: a connection that has not said Hello may
// not announce a frame of ServerOptions.MaxFrame — the server sizes its
// read buffer from the length prefix, so four bytes from a stranger
// would otherwise cost 256 MiB. The announcement is a framing
// violation: typed, logged, answered by hanging up, and nothing of that
// size is allocated.
func TestRemotePreHelloFrameCap(t *testing.T) {
	logged := make(chan error, 8)
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{Logf: func(_ string, args ...any) {
		for _, a := range args {
			if err, ok := a.(error); ok {
				select {
				case logged <- err:
				default:
				}
			}
		}
	}})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(wire.DefaultMaxFrame))
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// No body follows: a server that accepted the length would sit in
	// ReadFull waiting for it, so the hang-up itself is the refusal.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 16)); !errors.Is(err, io.EOF) && (err == nil || !strings.Contains(err.Error(), "reset")) {
		t.Fatalf("pre-hello %d-byte announcement: read = %v, want the server to hang up", wire.DefaultMaxFrame, err)
	}
	select {
	case err := <-logged:
		if !errors.Is(err, wire.ErrFrame) {
			t.Fatalf("server logged %v, want a wire.ErrFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server logged no framing violation")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > wire.DefaultMaxFrame/8 {
		t.Fatalf("server allocated %d bytes on a pre-hello length prefix", grew)
	}
}

// TestRemoteHelloRejectsOldVersion: a Hello of protocol version 1 is
// answered with ErrCodec, and the server hangs up.
func TestRemoteHelloRejectsOldVersion(t *testing.T) {
	const oldVersion = 1 // before the Hello answer carried the frame cap
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var e wire.Enc
	e.U32(oldVersion)
	e.Str("")
	if err := wire.WriteFrame(c, 1, wire.OpHello, e.Bytes()); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, op, payload, err := wire.ReadFrame(c, 0)
	if err != nil || op != wire.OpHello || len(payload) == 0 || payload[0] != 1 {
		t.Fatalf("version %d Hello: op %d, answer %v, err %v; want an error answer", oldVersion, op, payload, err)
	}
	if ep, err := wire.DecodeError(wire.NewDec(payload[1:])); err != nil || !errors.Is(ep.Err, wire.ErrCodec) {
		t.Fatalf("version %d Hello answered %v (decode: %v), want ErrCodec", oldVersion, ep.Err, err)
	}
	if _, err := c.Read(make([]byte, 16)); !errors.Is(err, io.EOF) && (err == nil || !strings.Contains(err.Error(), "reset")) {
		t.Fatalf("after refusing the Hello: read = %v, want the server to hang up", err)
	}
}

// TestDialRejectsShortHelloAnswer: a Hello answer must carry the
// feature mask and the frame cap after its banner; one that stops at the
// banner fails Dial with ErrCodec.
func TestDialRejectsShortHelloAnswer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		id, _, _, err := wire.ReadFrame(c, 0)
		if err != nil {
			return
		}
		var e wire.Enc
		e.U8(0)
		e.Str("forkbase/1")
		wire.WriteFrame(c, id, wire.OpHello, e.Bytes())
		c.Read(make([]byte, 1)) // until the client hangs up
	}()
	rs, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{})
	if err == nil {
		rs.Close()
	}
	if !errors.Is(err, wire.ErrCodec) {
		t.Fatalf("Dial against a banner-only Hello answer: err = %v, want ErrCodec", err)
	}
}

// TestRemoteUserReuseKeepsEachRequestsUser: the server reuses the user
// string a connection decoded last, on its read loop and its workers
// alike. Requests of two users interleaved on one connection, from
// several goroutines, must each be checked as their own user: the
// writer's Puts succeed, the reader's Puts are denied, and the reader's
// Gets (answered on the read loop) and Tracks (on a worker) succeed.
func TestRemoteUserReuseKeepsEachRequestsUser(t *testing.T) {
	acl := forkbase.NewACL(false)
	acl.Grant("writer", "doc", "", forkbase.PermWrite)
	acl.Grant("reader", "doc", "", forkbase.PermRead)
	addr, _ := startServer(t, forkbase.Open(forkbase.Options{ACL: acl}), forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	writer, reader := forkbase.WithUser("writer"), forkbase.WithUser("reader")
	if _, err := rc.Put(ctx, "doc", forkbase.String("v0"), writer); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := rc.Put(ctx, "doc", forkbase.String("v"), writer); err != nil {
					t.Errorf("writer's Put: %v", err)
					return
				}
				if _, err := rc.Put(ctx, "doc", forkbase.String("x"), reader); !errors.Is(err, forkbase.ErrAccessDenied) {
					t.Errorf("reader's Put: err = %v, want ErrAccessDenied", err)
					return
				}
				if _, err := rc.Get(ctx, "doc", reader); err != nil {
					t.Errorf("reader's Get: %v", err)
					return
				}
				if _, err := rc.Track(ctx, "doc", 0, 1, reader); err != nil {
					t.Errorf("reader's Track: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoteRequestOverServerFrameCap: the server's frame cap reaches
// the client in the Hello. A full-ship Put too large for it fails alone
// and before any of its bytes leave, naming the cap, so the Puts
// multiplexed beside it on the one connection go on; and a chunk-sync
// client sizes its uploads to the cap, so a value three times the cap
// round-trips.
func TestRemoteRequestOverServerFrameCap(t *testing.T) {
	const frameCap = 1 << 20
	ctx := context.Background()
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{MaxFrame: frameCap})
	data := randBytes(31, 3<<20)
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	out := wireBytes(rs, "out")
	_, err = rs.Put(ctx, "big", forkbase.NewBlob(data))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(frameCap)) {
		t.Fatalf("a %d-byte full-ship Put under a %d-byte cap: err = %v, want one naming the cap", len(data), frameCap, err)
	}
	if sent := wireBytes(rs, "out") - out; sent != 0 {
		t.Fatalf("the refused Put sent %d bytes", sent)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := rs.Put(ctx, fmt.Sprintf("small-%d-%d", g, i), forkbase.String("beside")); err != nil {
					errs <- fmt.Errorf("small Put %d of goroutine %d: %w", i, g, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if _, err := rs.Put(ctx, "big", forkbase.NewBlob(data)); err == nil {
			t.Fatal("an oversized full-ship Put succeeded")
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{Conns: 1, ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Put(ctx, "big", forkbase.NewBlob(data)); err != nil {
		t.Fatalf("chunk-sync Put of %d bytes under a %d-byte cap: %v", len(data), frameCap, err)
	}
	fresh, err := forkbase.Dial(addr, forkbase.RemoteConfig{Conns: 1, ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got := readDoc(t, fresh, "big"); !bytes.Equal(got, data) {
		t.Fatalf("the value read back differs: %d bytes, want %d", len(got), len(data))
	}
}

// TestServerHelloDeadline: a peer that connects and never completes
// its Hello — silent, or stalled halfway through the frame — is hung up
// on once the Hello deadline passes, and its read loop is gone. A
// connection whose Hello succeeded has no deadline: it may idle past it
// and still be served.
func TestServerHelloDeadline(t *testing.T) {
	const timeout = 150 * time.Millisecond
	t.Cleanup(forkbase.SetHelloTimeoutForTest(timeout)) // after the server closes
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	idle := rawHello(t, addr)
	before := runtime.NumGoroutine()

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	half, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	var e wire.Enc
	e.U32(wire.ProtoVersion)
	e.Str("")
	hello := wire.AppendFrame(nil, 1, wire.OpHello, e.Bytes())
	if _, err := half.Write(hello[:len(hello)/2]); err != nil {
		t.Fatal(err)
	}

	for name, c := range map[string]net.Conn{"silent": silent, "half-sent hello": half} {
		c.SetReadDeadline(time.Now().Add(10 * timeout))
		if _, err := c.Read(make([]byte, 16)); !errors.Is(err, io.EOF) && (err == nil || !strings.Contains(err.Error(), "reset")) {
			t.Fatalf("%s connection: read = %v, want the server to hang up", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The authenticated connection idles well past the deadline.
	time.Sleep(timeout)
	idle.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(idle, 2, wire.OpListKeys, okStatsOpts()); err != nil {
		t.Fatal(err)
	}
	if _, _, payload, err := wire.ReadFrame(idle, 0); err != nil || len(payload) == 0 || payload[0] != 0 {
		t.Fatalf("idle authenticated connection not served: %v", err)
	}
}

// okStatsOpts encodes an empty option set — the minimal valid request
// payload for option-only ops.
func okStatsOpts() []byte {
	var e wire.Enc
	wire.EncodeCallOptions(&e, wire.CallOptions{})
	return e.Bytes()
}

// blockingStore wraps a Store with a Get that parks until its gate
// opens or ctx cancels, signalling both events — the probe for drain
// and cancel-propagation tests.
type blockingStore struct {
	forkbase.Store
	gate chan struct{}

	block       boolFlag
	abortedOnce sync.Once
	aborted     chan struct{}
	entered     chan struct{}
}

func newBlockingStore(backend forkbase.Store, gate chan struct{}) *blockingStore {
	return &blockingStore{
		Store:   backend,
		gate:    gate,
		aborted: make(chan struct{}),
		entered: make(chan struct{}, 16),
	}
}

type boolFlag struct {
	mu sync.Mutex
	v  bool
}

func (b *boolFlag) Store(v bool) { b.mu.Lock(); b.v = v; b.mu.Unlock() }
func (b *boolFlag) Load() bool   { b.mu.Lock(); defer b.mu.Unlock(); return b.v }

func (bs *blockingStore) Get(ctx context.Context, key string, opts ...forkbase.Option) (*forkbase.FObject, error) {
	if bs.block.Load() {
		bs.entered <- struct{}{}
		select {
		case <-bs.gate:
		case <-ctx.Done():
			bs.abortedOnce.Do(func() { close(bs.aborted) })
			return nil, ctx.Err()
		}
	}
	return bs.Store.Get(ctx, key, opts...)
}

// TestRemoteCancelPropagation proves a client-side ctx cancel aborts
// the request server-side: the handler's context fires while the
// request is executing, and the client returns context.Canceled
// immediately rather than waiting the call out.
func TestRemoteCancelPropagation(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	bs := newBlockingStore(forkbase.Open(), gate)
	addr, _ := startServer(t, bs, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	if _, err := rc.Put(ctx, "k", forkbase.String("v")); err != nil {
		t.Fatal(err)
	}
	bs.block.Store(true)
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := rc.Get(cctx, "k")
		done <- err
	}()
	<-bs.entered
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled remote get: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not observe its own cancel")
	}
	select {
	case <-bs.aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("OpCancel did not reach the server handler")
	}
	// The connection it travelled on still works.
	bs.block.Store(false)
	if _, err := rc.Get(ctx, "k"); err != nil {
		t.Fatalf("connection unusable after cancel: %v", err)
	}
}

// TestRemoteGracefulShutdown: Shutdown waits for in-flight requests,
// flushes their responses, refuses new work with ErrServerClosed, and
// leaks no goroutines.
func TestRemoteGracefulShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	bs := newBlockingStore(forkbase.Open(), gate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := forkbase.NewServer(bs, forkbase.ServerOptions{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	rc, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rc.Put(ctx, "k", forkbase.String("v")); err != nil {
		t.Fatal(err)
	}
	// Park one request inside the store, then start the drain.
	bs.block.Store(true)
	inflight := make(chan error, 1)
	go func() {
		_, err := rc.Get(ctx, "k")
		inflight <- err
	}()
	<-bs.entered
	bs.block.Store(false)
	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()
	// The drain must wait for the parked request...
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown did not wait for in-flight work: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...and once released, the response reaches the client.
	gate <- struct{}{}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request lost during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, forkbase.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	// New work is refused.
	if _, err := rc.Get(ctx, "k"); err == nil {
		t.Fatal("get served after shutdown")
	}
	rc.Close()
	bs.Store.Close()
	// Goroutine hygiene: everything the server and client spawned is
	// gone (polling, since conn teardown is asynchronous).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteAuth: a server with an auth token refuses bad and missing
// tokens at the handshake and serves matching ones.
func TestRemoteAuth(t *testing.T) {
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{AuthToken: "sesame"})
	if _, err := forkbase.Dial(addr, forkbase.RemoteConfig{}); !errors.Is(err, forkbase.ErrAccessDenied) {
		t.Fatalf("tokenless dial: %v", err)
	}
	if _, err := forkbase.Dial(addr, forkbase.RemoteConfig{AuthToken: "wrong"}); !errors.Is(err, forkbase.ErrAccessDenied) {
		t.Fatalf("bad-token dial: %v", err)
	}
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{AuthToken: "sesame"})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.Put(context.Background(), "k", forkbase.String("v")); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteCustomResolverRejected: resolvers are functions; only the
// built-ins can cross the wire, and the rejection is local and typed.
func TestRemoteCustomResolverRejected(t *testing.T) {
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	custom := func(c forkbase.Conflict) ([]byte, bool) { return c.A, true }
	_, _, err = rc.Merge(context.Background(), "k", "master", forkbase.WithResolver(custom))
	if !errors.Is(err, forkbase.ErrBadOptions) {
		t.Fatalf("custom resolver: %v", err)
	}
}

// TestRemotePipelining floods one connection with concurrent requests
// and checks every response lands on its caller — the request-id
// multiplexing under real contention.
func TestRemotePipelining(t *testing.T) {
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	const workers, per = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < per; i++ {
				want := fmt.Sprintf("%d-%d", w, i)
				if _, err := rc.Put(ctx, key, forkbase.String(want)); err != nil {
					errs <- fmt.Errorf("put %s: %w", want, err)
					return
				}
				o, err := rc.Get(ctx, key)
				if err != nil {
					errs <- fmt.Errorf("get %s: %w", want, err)
					return
				}
				if string(o.Data) != want {
					errs <- fmt.Errorf("cross-talk: key %s got %q want %q", key, o.Data, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each worker's history is its own, fully intact.
	for w := 0; w < workers; w++ {
		hist, err := rc.Track(ctx, fmt.Sprintf("w%d", w), 0, per)
		if err != nil || len(hist) != per {
			t.Fatalf("worker %d history: %d versions, %v", w, len(hist), err)
		}
	}
}

// TestRemoteServerOfCluster serves a ClusterClient — the daemon's
// dispatcher role from the paper: network clients in front, the
// (simulated) servlet cluster behind.
func TestRemoteServerOfCluster(t *testing.T) {
	cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{Nodes: 3, TwoLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, cc, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rc.Put(ctx, fmt.Sprintf("k%d", i), forkbase.String("v")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := rc.ListKeys(ctx)
	if err != nil || len(keys) != 20 {
		t.Fatalf("cluster behind server: %d keys, %v", len(keys), err)
	}
}

// headOnlyStore answers every Get with the head of the default branch,
// whatever version the call asked for: a server that swaps versions.
type headOnlyStore struct{ forkbase.Store }

func (s headOnlyStore) Get(ctx context.Context, key string, _ ...forkbase.Option) (*forkbase.FObject, error) {
	return s.Store.Get(ctx, key)
}

// TestRemoteGetWithBaseChecksUID: a version read by WithBase must hash
// to the uid asked for; another version from the server is ErrCorrupt,
// not wrong data.
func TestRemoteGetWithBaseChecksUID(t *testing.T) {
	addr, _ := startServer(t, headOnlyStore{forkbase.Open()}, forkbase.ServerOptions{})
	rc, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	old, err := rc.Put(ctx, "k", forkbase.String("old"))
	if err != nil {
		t.Fatal(err)
	}
	head, err := rc.Put(ctx, "k", forkbase.String("new"))
	if err != nil {
		t.Fatal(err)
	}
	if o, err := rc.Get(ctx, "k", forkbase.WithBase(old)); !errors.Is(err, forkbase.ErrCorrupt) {
		t.Fatalf("Get(WithBase(old)) answered with the head = %v, %v; want ErrCorrupt", o, err)
	}
	for _, opts := range [][]forkbase.Option{{forkbase.WithBase(head)}, nil} {
		if o, err := rc.Get(ctx, "k", opts...); err != nil || o.UID() != head {
			t.Fatalf("Get(%d options) = %v, %v; want the head %s", len(opts), o, err, head.Short())
		}
	}
}

// TestRemoteUnknownResolverCode: an option prefix naming a resolver
// code no build knows — on a Merge, and on an Apply entry — is refused
// with ErrBadOptions, writes nothing, and leaves the connection
// serving.
func TestRemoteUnknownResolverCode(t *testing.T) {
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	call := func(id uint64, op uint8, body func(e *wire.Enc)) *wire.Dec {
		t.Helper()
		var e wire.Enc
		body(&e)
		if err := wire.WriteFrame(c, id, op, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		gotID, _, payload, err := wire.ReadFrame(c, 0)
		if err != nil || gotID != id {
			t.Fatalf("request %d: answer %d, %v", id, gotID, err)
		}
		return wire.NewDec(payload)
	}
	call(1, wire.OpHello, func(e *wire.Enc) {
		e.U32(wire.ProtoVersion)
		e.Str("")
	})
	const unknown = 9
	refused := []struct {
		name string
		op   uint8
		body func(e *wire.Enc)
	}{
		{"merge", wire.OpMerge, func(e *wire.Enc) {
			wire.EncodeCallOptions(e, wire.CallOptions{Resolver: unknown})
			e.Str("k")
			e.Str(forkbase.DefaultBranch)
		}},
		{"apply entry", wire.OpApply, func(e *wire.Enc) {
			wire.EncodeCallOptions(e, wire.CallOptions{})
			e.U32(1)
			e.Str("k")
			wire.EncodeCallOptions(e, wire.CallOptions{Branch: forkbase.DefaultBranch, BranchSet: true, Resolver: unknown})
			if err := wire.EncodeValue(e, forkbase.String("v")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for i, r := range refused {
		d := call(uint64(2+i), r.op, r.body)
		if status := d.U8(); status != 1 {
			t.Fatalf("%s with resolver code %d: status %d, want an error", r.name, unknown, status)
		}
		ep, err := wire.DecodeError(d)
		if err != nil || !errors.Is(ep.Err, forkbase.ErrBadOptions) {
			t.Fatalf("%s with resolver code %d: %v, %v; want ErrBadOptions", r.name, unknown, ep.Err, err)
		}
	}
	d := call(9, wire.OpListKeys, func(e *wire.Enc) { wire.EncodeCallOptions(e, wire.CallOptions{}) })
	if status := d.U8(); status != 0 {
		t.Fatalf("list keys after the refusals: status %d", status)
	}
	if keys := wire.DecodeStrings(d); d.Err() != nil || len(keys) != 0 {
		t.Fatalf("list keys after the refusals = %q, %v; want none", keys, d.Err())
	}
}
