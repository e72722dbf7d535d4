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
	cut     bool // a boundary is due after the current element
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
// pattern fired at any primed position inside it, or the chunk reached
// its maximum size. Once a boundary is due the rest of the element, and
// any element after it, is only counted: every boundary is followed by
// Next, which forgets the window anyway.
func (c *Chunker) Feed(p []byte) {
	if !c.cut {
		n, cut := c.FindBoundary(p)
		c.cut, p = cut, p[n:]
	}
	c.size += len(p)
}

// Boundary reports whether a chunk boundary should be placed after the
// elements fed so far.
func (c *Chunker) Boundary() bool {
	return c.cut || c.size >= c.max
}

// Size returns the number of bytes fed into the current chunk.
func (c *Chunker) Size() int { return c.size }

// Next starts a new chunk: the rolling window is reset so boundary
// decisions depend only on content after this point.
func (c *Chunker) Next() {
	c.roller.Reset()
	c.size = 0
	c.cut = false
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
	c.cut = false
}

// FindBoundary is the Blob path: it consumes bytes from p until a
// boundary condition is met — the pattern fires at a primed position or
// the chunk reaches its maximum size — and returns the number of bytes
// consumed and whether a boundary was placed there. When it returns
// (len(p), false) the caller may feed more bytes or close the final
// chunk. Feed runs on it too, so it is the throughput ceiling of every
// POS-Tree write; Roller.Roll is its byte-at-a-time reference.
//
// The roller state lives in locals for the call. A priming phase (the
// window not yet full: no exit term, no pattern check until the byte
// that fills it) is followed by the steady recurrence, whose leaving
// byte comes from the ring only until the window lies inside p, and
// from p[i-WindowSize] after that. The ring is refilled once, on exit.
func (c *Chunker) FindBoundary(p []byte) (n int, boundary bool) {
	r := c.roller
	sum, filled, mask := r.sum, r.n, c.pattern.mask
	// The byte that brings the chunk to its maximum size is a forced
	// boundary: scan no further than it.
	q, forced := p, false
	if rem := c.max - c.size; rem <= len(p) {
		if rem < 1 {
			rem = 1
		}
		q, forced = p[:rem], true
	}
	i := 0
	for ; filled < WindowSize && i < len(q); i++ {
		sum = bits.RotateLeft64(sum, 1) ^ byteTable[q[i]]
		filled++
		if filled == WindowSize && sum&mask == 0 {
			return c.save(q[:i+1], sum, filled), true
		}
	}
	for old := r.pos + i; i < len(q) && i < WindowSize; i++ {
		if old >= WindowSize {
			old -= WindowSize
		}
		sum = bits.RotateLeft64(sum, 1) ^ byteTable[q[i]] ^ exitTable[r.window[old]]
		old++
		if sum&mask == 0 {
			return c.save(q[:i+1], sum, filled), true
		}
	}
	if i < len(q) {
		in, out := q[WindowSize:], q[:len(q)-WindowSize]
		for k, b := range in {
			sum = bits.RotateLeft64(sum, 1) ^ byteTable[b] ^ exitTable[out[k]]
			if sum&mask == 0 {
				return c.save(q[:WindowSize+k+1], sum, filled), true
			}
		}
	}
	return c.save(q, sum, filled), forced
}

// save ends a FindBoundary call that consumed p: it stores the hash back into the
// roller, refills the ring with the last bytes of p, and counts p into
// the chunk. It returns len(p).
func (c *Chunker) save(p []byte, sum uint64, filled int) int {
	r := c.roller
	if len(p) >= WindowSize {
		copy(r.window[:], p[len(p)-WindowSize:])
		r.pos = 0
	} else {
		for _, b := range p {
			r.window[r.pos] = b
			r.pos++
			if r.pos == WindowSize {
				r.pos = 0
			}
		}
	}
	r.sum, r.n = sum, filled
	c.size += len(p)
	return len(p)
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
