// Package wire implements ForkBase's client-server protocol: a
// compact, length-prefixed binary framing with per-frame crc
// protection, and codecs for every request and response payload the
// unified Store API needs. The same codecs serve both ends — the
// RemoteStore client and the forkserved daemon — so the two cannot
// drift apart on the layout.
//
// # Frame layout
//
// Every message — request or response — travels in one frame:
//
//	u32  n        frame length: bytes that follow this field
//	u64  reqID    request identifier, chosen by the client; the
//	              response echoes it, which is what lets many
//	              in-flight requests share one connection
//	u8   op       operation code (request) / echoed op (response)
//	...  payload  op-specific body
//	u32  crc      crc32 (Castagnoli) over reqID..payload
//
// All integers are little-endian, matching the rest of the storage
// formats in this repository. The frame is the unit of trust: a bad
// length, a short read or a crc mismatch means the stream is
// desynchronized and the connection must be dropped — there is no way
// to find the next frame boundary. A well-framed request carrying an
// unknown op code, by contrast, is answered with a typed error and
// the connection survives.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// ProtoVersion is the protocol revision spoken by this build. The
// Hello rejects mismatched peers before any data moves: its request
// carries the version and the auth token (u32, str), its answer a
// banner (str), the feature mask and the server's frame cap (u32 each).
const ProtoVersion = 2

// frameOverhead is the fixed byte cost beyond the payload: reqID (8),
// op (1) and crc (4). The leading length field is not counted by n.
const frameOverhead = 8 + 1 + 4

// DefaultMaxFrame bounds a frame's length field: 256 MiB admits any
// realistic value while stopping a hostile 4 GiB allocation.
const DefaultMaxFrame = 256 << 20

// ErrFrame reports an unrecoverable framing violation — bad length,
// torn frame, crc mismatch. The stream cannot be resynchronized; the
// connection carrying it must be closed.
var ErrFrame = errors.New("wire: malformed frame")

// castagnoli is the crc table shared by every frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Operation codes. Response frames echo the request's op.
const (
	// OpHello opens a connection: protocol version and auth token.
	OpHello uint8 = iota + 1
	// OpCancel aborts the in-flight request named in the payload; it
	// has no response.
	OpCancel
	// The Store surface, one code per method.
	OpGet
	OpPut
	OpApply
	OpFork
	OpMerge
	OpTrack
	OpDiff
	OpListKeys
	OpListBranches
	OpRenameBranch
	OpRemoveBranch
	OpPin
	OpUnpin
	OpGC
	OpValue
	// Chunk-granular transfer (the chunksync subsystem). These ops move
	// individual POS-Tree chunks instead of materialized values, which
	// is what lets a client that already holds 99% of a large object's
	// chunks ship only the remaining 1% — the paper's dedup argument
	// applied to the wire. Servers that cannot reach their backend's
	// chunk store (e.g. a cluster proxy) answer them with ErrUnsupported
	// and do not advertise FeatureChunkSync in their Hello.
	//
	// OpChunkHave asks which of a batch of chunk ids the server already
	// stores; the response is a presence bitmap.
	OpChunkHave
	// OpChunkWant requests a batch of chunks by id (or, with
	// WantFlagDeep, every chunk reachable from a root). The chunks come
	// back in OpChunkWantPart frames; the OpChunkWant response proper is
	// the status frame that ends them. Ids the server does not hold are
	// not answered.
	OpChunkWant
	// OpChunkSend uploads a batch of raw chunks. The server re-verifies
	// every chunk's id against its content before admission; a mismatch
	// fails the whole request (corrupt chunks cost one request).
	OpChunkSend
	// OpPutChunked commits a version whose value chunks were uploaded
	// via OpChunkSend: the payload names the POS-Tree root, and the
	// server verifies the tree is complete before the put executes.
	OpPutChunked
	// OpChunkWantPart is response-only: one intermediate frame of an
	// OpChunkWant answer. The server ships chunks in bounded parts as it
	// reads them, each part a chunk batch in the OpChunkSend upload
	// layout, and terminates the stream with a normal OpChunkWant status
	// frame — success or error — so per-request error isolation survives
	// streaming. Clients never send it.
	OpChunkWantPart
	// OpServerStats returns the server's observability snapshot — the
	// per-op request counters, latency histograms and engine metrics of
	// internal/obs, encoded with EncodeSamples. Every server answers it.
	OpServerStats
	// OpMax is one past the highest assigned code — the bound both ends
	// use to size per-op metric tables.
	OpMax
)

// FeatureChunkSync, the one bit of the Hello's feature mask, marks a
// server that serves the chunk-granular transfer ops, and applies each
// OpChunkSend — verifies, shields and admits its chunks — before it
// reads the next frame on the connection: a client may write its last
// Send and the OpPutChunked that relies on it in one flush, and the
// commit cannot overtake the upload.
const FeatureChunkSync uint32 = 1 << 0

// KnownOp reports whether op names an operation this protocol version
// understands.
func KnownOp(op uint8) bool { return op >= OpHello && op < OpMax }

// MaxPayload returns the largest payload a frame can carry under the
// given cap (0 means DefaultMaxFrame). Writers must check against it
// BEFORE framing an outgoing message: the receiving end drops the
// whole connection on an oversized length — the stream cannot be
// resynchronized — so an unchecked large payload would fail every
// unrelated request multiplexed on the connection instead of just its
// own. The cap is also clamped below 4 GiB so the u32 length field
// can never wrap.
func MaxPayload(maxFrame int) int {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if maxFrame > math.MaxUint32 {
		maxFrame = math.MaxUint32
	}
	return maxFrame - frameOverhead
}

// AppendFrame serializes one frame onto dst and returns the extended
// slice.
func AppendFrame(dst []byte, reqID uint64, op uint8, payload []byte) []byte {
	n := frameOverhead + len(payload)
	var hdr [4 + 8 + 1]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:12], reqID)
	hdr[12] = op
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.Update(0, castagnoli, dst[len(dst)-n+4:])
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...)
}

// FrameParts builds the length-prefixed header and crc trailer of a
// frame whose payload will travel as its own buffer (scatter-gather
// writes via net.Buffers). Writing hdr, payload, tail back to back is
// byte-identical to AppendFrame, without copying the payload.
func FrameParts(reqID uint64, op uint8, payload []byte) (hdr [13]byte, tail [4]byte) {
	n := frameOverhead + len(payload)
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:12], reqID)
	hdr[12] = op
	crc := crc32.Update(0, castagnoli, hdr[4:13])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(tail[:], crc)
	return hdr, tail
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, reqID uint64, op uint8, payload []byte) error {
	buf := AppendFrame(make([]byte, 0, 4+frameOverhead+len(payload)), reqID, op, payload)
	_, err := w.Write(buf)
	return err
}

// framePool recycles the buffers the hot paths churn through: frame
// bodies on the read side, request/response encodings on the write
// side. Entries are *[]byte, so the pool stores a pointer rather than
// boxing a slice header; GetFrameBuf hands the emptied pointer to
// framePtrs and PutFrameBuf takes it back, so a steady-state
// Get/Put cycle allocates nothing.
var (
	framePool = sync.Pool{New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	}}
	framePtrs = sync.Pool{New: func() any { return new([]byte) }}
)

// maxPooledBuf caps what PutFrameBuf retains. A rare huge frame (a
// multi-megabyte blob) would otherwise pin its allocation in the pool
// forever; above the cap the buffer is simply dropped to the GC.
const maxPooledBuf = 1 << 20

// GetFrameBuf returns an empty reusable buffer from the frame pool.
// Pass it back via PutFrameBuf once nothing aliases it any more.
func GetFrameBuf() []byte {
	p := framePool.Get().(*[]byte)
	b := (*p)[:0]
	*p = nil // the spare pointer must not pin the buffer
	framePtrs.Put(p)
	return b
}

// PutFrameBuf recycles a buffer obtained from GetFrameBuf (or grown
// from one). The caller must not touch b — or anything aliasing its
// backing array, such as a payload returned by ReadFrameInto or a
// zero-copy Dec accessor — after the call.
func PutFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	p := framePtrs.Get().(*[]byte)
	*p = b
	framePool.Put(p)
}

// ReadFrame reads and verifies one frame from r. maxFrame caps the
// claimed length (0 means DefaultMaxFrame). A framing violation is
// reported wrapped in ErrFrame; the caller must close the connection,
// since the stream cannot be re-synchronized.
func ReadFrame(r io.Reader, maxFrame int) (reqID uint64, op uint8, payload []byte, err error) {
	reqID, op, payload, _, err = ReadFrameInto(r, maxFrame, nil)
	return reqID, op, payload, err
}

// ReadFrameInto is ReadFrame reading into a caller-supplied buffer so
// a steady-state read loop allocates nothing per frame. scratch is
// grown as needed; the (possibly reallocated) buffer comes back as
// buf — even on error — so the caller can keep reusing or pooling it.
// payload aliases buf and is valid only until buf's next reuse.
func ReadFrameInto(r io.Reader, maxFrame int, scratch []byte) (reqID uint64, op uint8, payload, buf []byte, err error) {
	buf = scratch
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	// The length prefix is read through buf too — a stack [4]byte
	// would escape into the io.Reader interface and cost the very
	// per-frame allocation this entry point exists to avoid.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 1024)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		// A clean EOF between frames is the peer hanging up, not a
		// protocol violation; mid-frame truncation below is.
		return 0, 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n < frameOverhead {
		return 0, 0, nil, buf, fmt.Errorf("%w: length %d below frame overhead", ErrFrame, n)
	}
	if n > maxFrame {
		return 0, 0, nil, buf, fmt.Errorf("%w: length %d exceeds cap %d", ErrFrame, n, maxFrame)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, buf, fmt.Errorf("%w: torn frame: %v", ErrFrame, err)
	}
	want := binary.LittleEndian.Uint32(buf[n-4:])
	if got := crc32.Update(0, castagnoli, buf[:n-4]); got != want {
		return 0, 0, nil, buf, fmt.Errorf("%w: crc mismatch", ErrFrame)
	}
	reqID = binary.LittleEndian.Uint64(buf[:8])
	op = buf[8]
	payload = buf[9 : n-4 : n-4]
	return reqID, op, payload, buf, nil
}

// FrameBuffered reports whether br already holds one complete frame,
// i.e. whether a ReadFrameInto is guaranteed not to block. The server
// uses it for two batching decisions: deferring the response flush
// while a pipelined burst is still arriving, and coalescing adjacent
// Put frames — both must never trade liveness for throughput, so they
// only proceed on frames that are fully here. A hostile length field
// cannot fake completeness: the claimed n must actually be buffered.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	return n <= uint32(br.Buffered()-4)
}
