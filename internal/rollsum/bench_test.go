package rollsum

import (
	"math/rand"
	"testing"
)

// benchData is 1 MiB of seeded bytes: the pattern fires about once per
// 2^12 bytes under the default leaf parameters.
func benchData() []byte {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

// BenchmarkFindBoundary is the Blob path: whole chunks per Scan call,
// through ScanBoundaries.
func BenchmarkFindBoundary(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	var cuts []int
	for i := 0; i < b.N; i++ {
		cuts = ScanBoundaries(12, 8<<12, data, cuts[:0])
	}
}

// BenchmarkScanElements is the element path every Map, List and Set
// build or edit takes: 100-byte elements, each scanned after the open
// chunk that holds the ones before it.
func BenchmarkScanElements(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	c := NewChunker(12, 8<<12)
	for i := 0; i < b.N; i++ {
		c.Next()
		start := 0
		for off := 0; off < len(data); off += 100 {
			end := min(off+100, len(data))
			if _, cut := c.Scan(data[start:off], data[off:end]); cut {
				start = end
				c.Next()
			}
		}
	}
}
