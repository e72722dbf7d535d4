// Package rollsum implements the cyclic-polynomial rolling hash and the
// pattern detectors that define POS-Tree node boundaries (paper §4.3.2
// and §4.3.3).
//
// A leaf-node boundary occurs after byte b_k of a window (b_1..b_k) when
//
//	P(b_1..b_k) & (2^q - 1) == 0
//
// where P is a cyclic-polynomial (buzhash) rolling hash. An index-node
// boundary occurs after an entry whose child cid satisfies
//
//	cid & (2^r - 1) == 0
//
// which is cheap because cids are already uniformly distributed
// cryptographic digests.
package rollsum

import (
	"math/bits"

	"forkbase/internal/chunk"
)

// WindowSize is k, the number of bytes in the rolling window. 48 bytes is
// small enough to localize boundary decisions and large enough that the
// window content is effectively random for real data.
const WindowSize = 48

// byteTable maps each byte value to a pseudo-random 64-bit integer (the
// function h in the paper). It is fixed so that chunking is deterministic
// across processes, which the deduplication relies on. Generated once
// from a splitmix64 sequence with seed 0x666f726b62617365 ("forkbase").
var byteTable [256]uint64

// exitTable is byteTable pre-rotated by WindowSize: the term a byte
// contributes by the time it leaves the window. Precomputing it removes
// one rotate from the per-byte scan loop.
var exitTable [256]uint64

func init() {
	x := uint64(0x666f726b62617365)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range byteTable {
		byteTable[i] = next()
		exitTable[i] = bits.RotateLeft64(byteTable[i], WindowSize%64)
	}
}

// IndexPattern decides index-chunk boundaries from child cids: the
// pattern occurs when the r least significant bits of the cid are zero,
// giving an expected fan-out of 2^r entries per index node (§4.3.3).
type IndexPattern struct {
	mask uint64
}

// NewIndexPattern returns an index pattern with 2^r expected entries
// between boundaries.
func NewIndexPattern(r uint) IndexPattern {
	return IndexPattern{mask: (uint64(1) << r) - 1}
}

// Match reports whether child cid id is a boundary. The low 8 bytes of
// the digest are interpreted little-endian; any fixed slice of a
// cryptographic digest is uniformly distributed.
func (p IndexPattern) Match(id chunk.ID) bool {
	v := uint64(id[0]) | uint64(id[1])<<8 | uint64(id[2])<<16 | uint64(id[3])<<24 |
		uint64(id[4])<<32 | uint64(id[5])<<40 | uint64(id[6])<<48 | uint64(id[7])<<56
	return v&p.mask == 0
}
