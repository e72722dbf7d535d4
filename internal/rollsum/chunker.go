package rollsum

import "math/bits"

// Chunker segments a byte stream into content-defined chunks. The caller
// feeds element-sized slices (a whole key-value pair for Map chunks, a
// whole element for List chunks, individual byte runs for Blob chunks)
// and asks after each element whether a boundary should be placed. If the
// pattern fires in the middle of an element the boundary is extended to
// the element's end, so no element ever spans two chunks (§4.3.2).
//
// A boundary is also forced when the chunk grows to MaxSize, bounding
// node size for pattern-free (e.g. repeated) content at the cost of
// boundary-shifting on insertion, as the paper notes in §4.3.3.
type Chunker struct {
	roller  *Roller
	pattern LeafPattern
	size    int
	max     int
	hit     bool
}

// NewChunker returns a chunker with expected chunk size 2^q bytes and a
// hard cap of maxSize bytes per chunk.
func NewChunker(q uint, maxSize int) *Chunker {
	return &Chunker{
		roller:  NewRoller(),
		pattern: NewLeafPattern(q),
		max:     maxSize,
	}
}

// Feed consumes one element's bytes and remembers whether the boundary
// pattern fired at any primed position inside it.
func (c *Chunker) Feed(p []byte) {
	for _, b := range p {
		v := c.roller.Roll(b)
		if c.roller.Primed() && c.pattern.Match(v) {
			c.hit = true
		}
	}
	c.size += len(p)
}

// Boundary reports whether a chunk boundary should be placed after the
// elements fed so far.
func (c *Chunker) Boundary() bool {
	return c.hit || c.size >= c.max
}

// Size returns the number of bytes fed into the current chunk.
func (c *Chunker) Size() int { return c.size }

// Next starts a new chunk: the rolling window is reset so boundary
// decisions depend only on content after this point.
func (c *Chunker) Next() {
	c.roller.Reset()
	c.size = 0
	c.hit = false
}

// Resume positions the chunker inside a chunk whose first size bytes
// are known to have placed no boundary, without hashing them all: the
// hash depends only on the last WindowSize bytes, so replaying tail —
// which must be the last min(size, WindowSize) of those bytes — leaves
// the chunker deciding exactly as if the whole chunk had been fed
// since the last Next.
func (c *Chunker) Resume(tail []byte, size int) {
	c.roller.Reset()
	for _, b := range tail {
		c.roller.Roll(b)
	}
	c.size = size
	c.hit = false
}

// FindBoundary is the Blob fast path: it consumes bytes from p until a
// boundary condition is met and returns the number of bytes consumed and
// whether a boundary was placed there. When it returns (len(p), false)
// the caller may feed more bytes or close the final chunk.
//
// The loop is the throughput ceiling of every large Blob write, so the
// roller state is hoisted into locals and split into a priming phase
// (window not yet full: no pattern checks, no exit term) and a steady
// phase (one rotate, two table lookups, one mask test per byte). The
// boundary decisions are bit-identical to Feed's.
func (c *Chunker) FindBoundary(p []byte) (n int, boundary bool) {
	r := c.roller
	sum, pos, size := r.sum, r.pos, c.size
	mask, max := c.pattern.mask, c.max
	i := 0
	for ; r.n < WindowSize && i < len(p); i++ {
		b := p[i]
		r.window[pos] = b
		pos++
		if pos == WindowSize {
			pos = 0
		}
		sum = bits.RotateLeft64(sum, 1) ^ byteTable[b]
		r.n++
		size++
		// The byte that fills the window is the first primed position,
		// so it already gets a pattern check, exactly as Feed does.
		if (r.n == WindowSize && sum&mask == 0) || size >= max {
			r.sum, r.pos, c.size = sum, pos, size
			return i + 1, true
		}
	}
	for ; i < len(p); i++ {
		b := p[i]
		old := r.window[pos]
		r.window[pos] = b
		pos++
		if pos == WindowSize {
			pos = 0
		}
		sum = bits.RotateLeft64(sum, 1) ^ byteTable[b] ^ exitTable[old]
		size++
		if sum&mask == 0 || size >= max {
			r.sum, r.pos, c.size = sum, pos, size
			return i + 1, true
		}
	}
	r.sum, r.pos, c.size = sum, pos, size
	return len(p), false
}

// ScanBoundaries finds every boundary a fresh chunker (reset state, as
// if a boundary sat immediately before p[0]) would place in p, and
// appends their end offsets (exclusive) to dst. The final partial chunk
// — bytes after the last boundary — places no offset.
//
// This is the speculative half of parallel POS-Tree construction: a
// worker scans a block under the guess that a boundary precedes it, and
// a sequential stitcher later verifies the guess (see postree). The
// offsets are exactly what repeated FindBoundary/Next calls on a fresh
// Chunker would produce.
func ScanBoundaries(q uint, maxSize int, p []byte, dst []int) []int {
	c := NewChunker(q, maxSize)
	off := 0
	for off < len(p) {
		n, boundary := c.FindBoundary(p[off:])
		off += n
		if boundary {
			dst = append(dst, off)
			c.Next()
		}
	}
	return dst
}
