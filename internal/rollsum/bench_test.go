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

// BenchmarkFindBoundary is the Blob path: whole chunks per call.
func BenchmarkFindBoundary(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	var cuts []int
	for i := 0; i < b.N; i++ {
		cuts = ScanBoundaries(12, 8<<12, data, cuts[:0])
	}
}

// BenchmarkFeed is the element path every Map, List and Set build or
// edit takes, fed 100-byte elements.
func BenchmarkFeed(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	c := NewChunker(12, 8<<12)
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(data); off += 100 {
			end := off + 100
			if end > len(data) {
				end = len(data)
			}
			c.Feed(data[off:end])
			if c.Boundary() {
				c.Next()
			}
		}
	}
}
