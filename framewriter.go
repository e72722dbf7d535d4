package forkbase

import (
	"io"
	"net"
	"runtime"
	"sync"

	"forkbase/internal/obs"
	"forkbase/internal/wire"
)

// connBufSize sizes the bufio.Reader on both ends of a connection.
// Deep pipelining only pays off if a burst of frames arrives in one
// read; 64 KiB holds thousands of small frames.
const connBufSize = 64 << 10

// bigPayload is the payload size above which a frame is written via
// writev (net.Buffers) instead of being copied into the pending
// buffer — at that size the copy costs more than the extra iovec.
const bigPayload = 64 << 10

// maxRetainedWrite caps the pending buffer kept across flushes, so
// one burst of large responses cannot pin its high-water mark in
// memory for the connection's lifetime.
const maxRetainedWrite = 1 << 20

// frameWriter batches the frames bound for one connection into as few
// syscalls as possible. Frames are appended to a pending buffer under
// a mutex; the first writer finding no flush in progress becomes the
// flusher and drains the buffer, releasing the mutex around each
// Write so concurrent writers keep appending — everything that lands
// while a Write is in flight goes out in the next one. Deeply
// pipelined traffic thus collapses to one syscall per burst instead
// of one per frame, with no background goroutine and no added latency
// for a lone frame (its writer flushes at once, without yielding).
//
// enqueue appends without flushing; the server's read loop uses it to
// cork a burst of inline responses and flush once at burst end. A
// corked frame is never stranded: every writeFrame and flush drains
// whatever is pending, and the read loop flushes whenever it stops
// finding complete frames in its buffer.
type frameWriter struct {
	mu       sync.Mutex
	w        io.Writer
	count    *obs.Counter // outbound wire bytes, framing included; nil to skip
	onErr    func(error)  // called once per failed flush, outside mu
	pend     []byte
	spare    []byte // retained empty buffer for pend's next swap
	flushing bool
	err      error // first write failure; sticky

	// busy reports whether another request is in flight on the
	// connection; nil means never. It is asked before mu is taken, so
	// the owner's lock never nests inside mu.
	busy   func() bool
	yields int // writes that yielded before claiming the flush
}

// newFrameWriter wraps w. count, when non-nil, accumulates every byte
// actually handed to w — the single choke point both ends route their
// outbound wire accounting through, so no path (corked bursts, writev
// frames) can escape the metric.
func newFrameWriter(w io.Writer, count *obs.Counter, onErr func(error), busy func() bool) *frameWriter {
	return &frameWriter{w: w, count: count, onErr: onErr, busy: busy}
}

// enqueue appends one frame without scheduling a flush. The caller
// owes a later flush (or writeFrame) on this connection.
func (fw *frameWriter) enqueue(reqID uint64, op uint8, payload []byte) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	fw.pend = wire.AppendFrame(fw.pend, reqID, op, payload)
	fw.mu.Unlock()
	return nil
}

// writeFrame appends one frame and ensures it reaches the connection:
// the caller either becomes the flusher or an in-flight flusher picks
// the frame up. The payload is not referenced after return.
func (fw *frameWriter) writeFrame(reqID uint64, op uint8, payload []byte) error {
	yield := fw.busy != nil && fw.busy()
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if len(payload) >= bigPayload && !fw.flushing {
		fw.flushing = true
		head := fw.takePend()
		hdr, tail := wire.FrameParts(reqID, op, payload)
		bufs := net.Buffers{head, hdr[:], payload, tail[:]}
		if len(head) == 0 {
			bufs = bufs[1:]
		}
		fw.mu.Unlock()
		n, err := bufs.WriteTo(fw.w)
		fw.wrote(n)
		fw.mu.Lock()
		fw.retire(head)
		return fw.runFlush(err)
	}
	fw.pend = wire.AppendFrame(fw.pend, reqID, op, payload)
	if fw.flushing {
		fw.mu.Unlock()
		return nil
	}
	if yield {
		// Yield once before claiming the flush, but only when another
		// request is in flight: pipelined peers wake in bursts (the far
		// end flushes their responses together), so one reschedule lets
		// them cork their frames into this write. A lone request has no
		// one to wait for: its Gosched cost 0.2–0.27 µs a write on a
		// 2-core x86 host, lost in the noise of a kv-small-remote p50.
		fw.yields++
		fw.mu.Unlock()
		runtime.Gosched()
		fw.mu.Lock()
		if fw.err != nil || fw.flushing || len(fw.pend) == 0 {
			// The write failed, or a peer claimed the flush or drained
			// us, during the yield.
			err := fw.err
			fw.mu.Unlock()
			return err
		}
	}
	fw.flushing = true
	return fw.runFlush(nil)
}

// flush drains anything pending unless a flusher is already on it.
func (fw *frameWriter) flush() error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if fw.flushing || len(fw.pend) == 0 {
		fw.mu.Unlock()
		return nil
	}
	fw.flushing = true
	return fw.runFlush(nil)
}

// takePend detaches the pending buffer for writing, installing the
// spare so appends during the write start from an allocated buffer.
// Caller holds mu.
func (fw *frameWriter) takePend() []byte {
	buf := fw.pend
	if fw.spare != nil {
		fw.pend = fw.spare[:0]
		fw.spare = nil
	} else {
		fw.pend = nil
	}
	return buf
}

// wrote credits n bytes to the outbound counter. Called outside mu —
// the counter is atomic and order does not matter for telemetry.
func (fw *frameWriter) wrote(n int64) {
	if fw.count != nil && n > 0 {
		fw.count.Add(n)
	}
}

// retire returns a drained buffer to spare duty. Caller holds mu.
func (fw *frameWriter) retire(buf []byte) {
	if fw.spare == nil && buf != nil && cap(buf) <= maxRetainedWrite {
		fw.spare = buf[:0]
	}
}

// runFlush is the flusher body: entered with mu held, the flushing
// flag claimed and err from any write already made, it drains pend
// until empty, releasing mu around every Write. Returns with mu
// released.
func (fw *frameWriter) runFlush(err error) error {
	for err == nil && len(fw.pend) > 0 {
		buf := fw.takePend()
		fw.mu.Unlock()
		var n int
		n, err = fw.w.Write(buf)
		fw.wrote(int64(n))
		fw.mu.Lock()
		fw.retire(buf)
	}
	fw.flushing = false
	if err != nil && fw.err == nil {
		fw.err = err
	}
	fw.mu.Unlock()
	if err != nil && fw.onErr != nil {
		fw.onErr(err)
	}
	return err
}
