package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
)

// Every input the system under test sees is derived from the run's
// seed here or in a workload's generator: same seed, same bytes.

// subSeed derives an independent stream seed from the run seed, so
// two generators never share a random sequence.
func subSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7919 + 17
}

const textAlphabet = "abcdefghijklmnopqrstuvwxyz      " // 32 symbols: one byte, one letter

// fastText returns n bytes of word-like lower-case text, the same
// shape as workload.RandText but an order of magnitude cheaper: the
// 64 MiB blob corpus is regenerated on every set-up.
func fastText(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	rng.Read(out)
	for i, b := range out {
		out[i] = textAlphabet[b&31]
	}
	return out
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sum is the model's content fingerprint: length and crc32c.
func sum(b []byte) uint64 {
	return uint64(len(b))<<32 | uint64(crc32.Checksum(b, castagnoli))
}

// fillValue writes the value of version ver of entity id into dst:
// the two numbers, then filler drawn from pool at an offset they
// determine. The model never stores values; it regenerates them.
func fillValue(dst []byte, pool []byte, id, ver uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], id)
	binary.LittleEndian.PutUint64(dst[8:16], ver)
	off := int((id*2654435761 + ver*40503) % uint64(len(pool)-len(dst)))
	copy(dst[16:], pool[off:])
}
