package rollsum

import "math/bits"

// Roller is the byte-at-a-time reference for Chunker.Scan: the
// cyclic-polynomial hash over a sliding window of WindowSize bytes,
// kept in a ring of its own. The zero value is not usable; call
// NewRoller.
type Roller struct {
	window [WindowSize]byte
	pos    int
	sum    uint64
	n      int // bytes consumed since last Reset, saturating at WindowSize
}

// NewRoller returns a Roller with an empty window.
func NewRoller() *Roller {
	return &Roller{}
}

// Reset clears the window, as a chunk boundary does.
func (r *Roller) Reset() {
	*r = Roller{}
}

// Roll consumes one byte and returns the updated hash value.
func (r *Roller) Roll(b byte) uint64 {
	old := r.window[r.pos]
	r.window[r.pos] = b
	r.pos++
	if r.pos == WindowSize {
		r.pos = 0
	}
	r.sum = bits.RotateLeft64(r.sum, 1) ^ byteTable[b]
	if r.n == WindowSize {
		// The byte leaving the window was rotated WindowSize times
		// since insertion; cancel its term. Before the window fills
		// there is nothing to remove.
		r.sum ^= exitTable[old]
	} else {
		r.n++
	}
	return r.sum
}

// Sum returns the current hash value without consuming input.
func (r *Roller) Sum() uint64 { return r.sum }

// Primed reports whether a full window has been consumed since Reset;
// only then is a position checked for a boundary.
func (r *Roller) Primed() bool { return r.n == WindowSize }

// LeafPattern decides leaf-chunk boundaries: the pattern occurs when the
// q least significant bits of the rolling hash are zero, giving an
// expected chunk size of 2^q bytes.
type LeafPattern struct {
	mask uint64
}

// NewLeafPattern returns a leaf pattern with 2^q expected bytes between
// boundaries.
func NewLeafPattern(q uint) LeafPattern {
	return LeafPattern{mask: (uint64(1) << q) - 1}
}

// Match reports whether hash value v is a boundary.
func (p LeafPattern) Match(v uint64) bool { return v&p.mask == 0 }
