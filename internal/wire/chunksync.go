package wire

// Codecs for the chunk-granular transfer ops. Requests lead with the
// usual CallOptions prefix (user identity for the access check) and a
// routing key; these helpers cover the op-specific remainder. Chunks
// travel in their canonical serialized form (chunk.Chunk.Bytes: type
// byte + payload), so the receiving end can recompute the content id
// and refuse a chunk whose bytes do not hash to the id it was claimed
// under — the transport never becomes a way to smuggle unverified data
// into a content-addressed store.

import (
	"forkbase/internal/chunk"
)

// An OpChunkWant request ends with one flags byte after the id list.
// A request without it fails to decode (ErrCodec) and one with a bit
// other than WantFlagDeep set is refused (ErrBadOptions); neither is
// answered with chunks.
//
// WantFlagDeep asks the server to treat the (single) requested id as a
// POS-Tree root and stream every chunk reachable from it — a cold
// read's whole tree in one round trip instead of one per level.
// Best-effort: chunks the server does not hold are skipped, and the
// client's pull sweep remains responsible for completeness.
const WantFlagDeep uint8 = 1 << 1

// Want answers (OpChunkWantPart frames) carry chunk batches in the
// exact OpChunkSend upload layout, so EncodeChunkUpload/DecodeChunkUpload
// serve both directions and the verify-before-admit rule applies
// symmetrically.

// EncodeBitmap appends a presence bitmap: one bit per entry, LSB-first
// within each byte. The count is not encoded — both ends know it from
// the id list the bitmap answers.
func EncodeBitmap(e *Enc, bits []bool) {
	out := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	e.Blob(out)
}

// DecodeBitmap parses a presence bitmap for n entries.
func DecodeBitmap(d *Dec, n int) []bool {
	raw := d.Blob()
	if d.err != nil {
		return nil
	}
	if len(raw) != (n+7)/8 {
		d.fail("bitmap length")
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// ChunkFrame is one uploaded chunk as it appears on the wire: the id
// the sender claims, and the serialized bytes the receiver must verify
// against it.
type ChunkFrame struct {
	ID    chunk.ID
	Bytes []byte
}

// chunkFrameMin is the smallest possible encoded ChunkFrame: id, byte
// count, and the one type byte every serialized chunk carries.
const chunkFrameMin = chunk.IDSize + 4 + 1

// encodeChunkBody appends a chunk's serialized form (type byte +
// payload) as a length-prefixed blob without materializing the
// intermediate chunk.Bytes() copy — on the bulk paths (uploads, Want
// parts) that copy would be the single largest allocation per chunk.
func encodeChunkBody(e *Enc, c *chunk.Chunk) {
	e.U32(uint32(1 + len(c.Data())))
	e.U8(byte(c.Type()))
	e.buf = append(e.buf, c.Data()...)
}

// EncodeChunkUpload appends an OpChunkSend chunk batch.
func EncodeChunkUpload(e *Enc, chunks []*chunk.Chunk) {
	e.U32(uint32(len(chunks)))
	for _, c := range chunks {
		e.UID(c.ID())
		encodeChunkBody(e, c)
	}
}

// DecodeChunkUpload parses an OpChunkSend chunk batch. The frames are
// returned as claimed — verification (decode + id recompute) is the
// caller's job, so a failure can be attributed to the specific chunk.
//
// Zero-copy: each frame's Bytes aliases the decoder's buffer, so the
// batch is only valid until that buffer is reused. The server's
// admission path respects this — chunk.Decode copies the body before
// anything is stored — and finishes before the frame buffer returns
// to the pool.
func DecodeChunkUpload(d *Dec) []ChunkFrame {
	n := d.Count(chunkFrameMin)
	out := make([]ChunkFrame, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		var f ChunkFrame
		f.ID = d.UID()
		f.Bytes = d.BlobRef()
		if d.err == nil {
			out = append(out, f)
		}
	}
	return out
}
