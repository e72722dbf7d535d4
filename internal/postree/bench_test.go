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

// BenchmarkBuildMap is one tabular import seen from the tree: 25 000
// Map entries of about 150 bytes, built from scratch.
func BenchmarkBuildMap(b *testing.B) {
	rows := importRows(25000, 42)
	size := 0
	for _, e := range rows {
		size += len(e)
	}
	cfg := DefaultConfig()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.NewMemStore()
		bu := NewBuilder(s, cfg, KindMap)
		for _, e := range rows {
			bu.Append(e)
		}
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
