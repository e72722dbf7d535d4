package rollsum

import "math/bits"

// Chunker segments a byte stream into content-defined chunks. A leaf
// boundary falls after the byte at which the q low bits of the rolling
// hash over the last WindowSize bytes are zero, counted from the
// chunk's first byte: before the window fills nothing is checked. The
// hash follows the paper's recurrence
//
//	P(b_1..b_k) = s(P(b_0..b_{k-1})) XOR s^k(h(b_0)) XOR s^0(h(b_k))
//
// with s a one-bit cyclic left shift (bits.RotateLeft64) and s^k
// rotation by k mod 64. A boundary is also forced when the chunk grows
// to its maximum size, bounding node size for pattern-free (e.g.
// repeated) content at the cost of boundary-shifting on insertion, as
// the paper notes in §4.3.3.
//
// The window is not kept here: every byte of it is in the open chunk,
// which the caller holds and passes to each Scan. The chunker keeps
// only the hash and how many of the open chunk's bytes it covers.
type Chunker struct {
	sum  uint64 // the hash after the first size bytes of the open chunk
	size int
	mask uint64
	max  int
}

// NewChunker returns a chunker with expected chunk size 2^q bytes and a
// hard cap of maxSize bytes per chunk.
func NewChunker(q uint, maxSize int) *Chunker {
	return &Chunker{mask: (uint64(1) << q) - 1, max: maxSize}
}

// Next starts a new chunk: the hash is forgotten, so boundary decisions
// depend only on content after this point. It must follow every cut,
// or an open chunk refilled to the old size would reuse the old hash.
func (c *Chunker) Next() {
	c.sum, c.size = 0, 0
}

// Scan consumes the head of p, the bytes that follow leaf, until a
// boundary is due: the pattern fires at a checked position, or leaf and
// the bytes taken reach the maximum size. It returns how many bytes it
// took and whether a boundary falls after them; (len(p), false) means
// the chunk stays open. leaf holds the open chunk's bytes since the last
// boundary, none of which placed one. An element that must not be split
// is passed whole as p: a boundary inside it is extended to its end by
// the caller, so no element spans two chunks (§4.3.2).
//
// When leaf is not the size the hash covers, it grew by bytes the
// chunker has not seen (an edit's copied run), and Scan first rebuilds
// the hash from leaf's last WindowSize bytes, on which alone it depends.
//
// Scan is the throughput ceiling of every POS-Tree write.
func (c *Chunker) Scan(leaf, p []byte) (n int, cut bool) {
	if len(leaf) != c.size {
		tail := leaf[max(len(leaf)-WindowSize, 0):]
		c.sum = 0
		for _, b := range tail {
			c.sum = bits.RotateLeft64(c.sum, 1) ^ byteTable[b]
		}
	}
	sum, mask := c.sum, c.mask
	// The byte that brings the chunk to its maximum size is a forced
	// boundary: scan no further than it.
	q, forced := p, false
	if rem := c.max - len(leaf); rem <= len(p) {
		q, forced = p[:max(rem, 1)], true
	}
	// The window fills: no byte leaves it, and only the byte that
	// fills it is checked.
	i := 0
	for ; len(leaf)+i < WindowSize && i < len(q); i++ {
		sum = bits.RotateLeft64(sum, 1) ^ byteTable[q[i]]
		if len(leaf)+i == WindowSize-1 && sum&mask == 0 {
			return c.took(leaf, i+1, sum), true
		}
	}
	// The window straddles leaf and p: the leaving byte is in leaf.
	if i < len(q) && i < WindowSize {
		in := q[i:min(len(q), WindowSize)]
		out := leaf[len(leaf)-WindowSize+i:][:len(in)]
		for k, b := range in {
			sum = bits.RotateLeft64(sum, 1) ^ byteTable[b] ^ exitTable[out[k]]
			if sum&mask == 0 {
				return c.took(leaf, i+k+1, sum), true
			}
		}
		i += len(in)
	}
	// The window lies inside p. Bytes are left only if the loops above
	// stopped at i == WindowSize.
	if i < len(q) {
		in, out := q[WindowSize:], q[:len(q)-WindowSize]
		for k, b := range in {
			sum = bits.RotateLeft64(sum, 1) ^ byteTable[b] ^ exitTable[out[k]]
			if sum&mask == 0 {
				return c.took(leaf, WindowSize+k+1, sum), true
			}
		}
	}
	return c.took(leaf, len(q), sum), forced
}

// took records that sum covers leaf and the n bytes Scan took after
// it, and returns n.
func (c *Chunker) took(leaf []byte, n int, sum uint64) int {
	c.sum, c.size = sum, len(leaf)+n
	return n
}

// ScanBoundaries finds every boundary a fresh chunker (as if a boundary
// sat immediately before p[0]) would place in p, and appends their end
// offsets (exclusive) to dst. The final partial chunk — bytes after the
// last boundary — places no offset. No tree is built through it; the
// benchmark's rollsum.scan_mb_per_s layer measure times it over page
// text, to see the scan alone, without hashing or chunk allocation.
func ScanBoundaries(q uint, maxSize int, p []byte, dst []int) []int {
	c := NewChunker(q, maxSize)
	for off := 0; off < len(p); {
		n, cut := c.Scan(nil, p[off:])
		off += n
		if cut {
			dst = append(dst, off)
			c.Next()
		}
	}
	return dst
}
