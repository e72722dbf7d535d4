package postree

import (
	"math/rand"
	"testing"

	"forkbase/internal/store"
)

func BenchmarkBuildBlob(b *testing.B) {
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(42)).Read(data)
	cfg := DefaultConfig()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.NewMemStore()
		bu := NewBuilder(s, cfg, KindBlob)
		bu.AppendBytes(data)
		if _, err := bu.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapApplyScattered is the ledger's block commit seen from
// the index: 100 values replaced in place across a 10 000-entry Map.
func BenchmarkMapApplyScattered(b *testing.B) {
	tr, sets, _ := scatteredMapEdit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.MapApply(sets, nil); err != nil {
			b.Fatal(err)
		}
	}
}
