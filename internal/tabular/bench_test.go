package tabular

import (
	"testing"

	"forkbase"
	"forkbase/internal/workload"
)

// The table the dataset workload of benchmark/ runs on: 100 000 rows
// in the row layout (a Map of height 3, ~4 800 leaves), and a branch
// that rewrote a 1 000-row slice of it.
const (
	benchRows  = 100_000
	benchSlice = 1_000
)

func benchTable(tb testing.TB, db *forkbase.DB) (tbl *FBTable, rows, edits []workload.Record) {
	tb.Helper()
	rows = workload.Dataset(42, benchRows)
	tbl = NewFBTable(db, "bench", RowLayout)
	if err := tbl.Import("master", rows); err != nil {
		tb.Fatal(err)
	}
	if err := tbl.Fork(bgCtx, "master", "edit"); err != nil {
		tb.Fatal(err)
	}
	edits = rewriteSlice(rows, 40_000, 1)
	if err := tbl.Update("edit", edits, nil); err != nil {
		tb.Fatal(err)
	}
	return tbl, rows, edits
}

// rewriteSlice returns benchSlice rows from lo on with Int1 moved by
// delta.
func rewriteSlice(rows []workload.Record, lo int, delta int64) []workload.Record {
	out := append([]workload.Record(nil), rows[lo:lo+benchSlice]...)
	for i := range out {
		out[i].Int1 += delta
	}
	return out
}

// TestAggregateAllocatesPerScanNotPerRow: a full-table sum reads one
// field of each row in place, so what it allocates — the handles, the
// walk's stack, the memo the subtotals go into — does not grow with
// the rows. Each run is a full pass: a fresh handle has an empty memo.
func TestAggregateAllocatesPerScanNotPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("imports 100 000 rows")
	}
	tbl, rows, _ := benchTable(t, forkbase.Open())
	var want int64
	for _, r := range rows {
		want += r.Int1
	}
	allocs := testing.AllocsPerRun(3, func() {
		if got, err := NewFBTable(tbl.db, "bench", RowLayout).Aggregate("master", "int1"); err != nil || got != want {
			t.Fatalf("Aggregate = %d, %v; want %d", got, err, want)
		}
	})
	if allocs >= 1000 {
		t.Fatalf("Aggregate over %d rows allocates %.0f objects; want fewer than 1000", benchRows, allocs)
	}
	t.Logf("Aggregate over %d rows: %.0f allocations", benchRows, allocs)
}

func BenchmarkTableGet(b *testing.B) {
	tbl, rows, _ := benchTable(b, forkbase.Open())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		want := rows[(i*7919)%benchRows]
		if got, ok, err := tbl.Get("master", want.PK); err != nil || !ok || got != want {
			b.Fatalf("Get(%s) = %+v, %v, %v", want.PK, got, ok, err)
		}
	}
}

// BenchmarkTableAggregate is the full pass: a fresh handle each time,
// so nothing is remembered from the sum before.
func BenchmarkTableAggregate(b *testing.B) {
	tbl, _, _ := benchTable(b, forkbase.Open())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFBTable(tbl.db, "bench", RowLayout).Aggregate("edit", "int1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableAggregateDelta sums master and edit in turn on one
// handle: after the first two, each sum is the memo's answer for a
// root it has seen.
func BenchmarkTableAggregateDelta(b *testing.B) {
	tbl, _, _ := benchTable(b, forkbase.Open())
	branches := [2]string{"master", "edit"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Aggregate(branches[i%2], "int1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableDiffCount(b *testing.B) {
	tbl, _, edits := benchTable(b, forkbase.Open())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, modified, err := tbl.DiffCount("master", "edit"); err != nil || modified != len(edits) {
			b.Fatalf("DiffCount: %d modified, %v", modified, err)
		}
	}
}

// BenchmarkTableUpdateSlice rewrites a 1 000-row slice, a different
// one each time, on one branch.
func BenchmarkTableUpdateSlice(b *testing.B) {
	tbl, rows, _ := benchTable(b, forkbase.Open())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 7919) % (benchRows - benchSlice)
		if err := tbl.Update("edit", rewriteSlice(rows, lo, int64(i+2)), nil); err != nil {
			b.Fatal(err)
		}
	}
}
