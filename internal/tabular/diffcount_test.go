package tabular

import (
	"testing"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// TestDiffCountCostsTheDelta holds DiffCount to exact read counts on
// the 100 000-row bench table: comparing master with a branch that
// rewrote a 1 000-row slice reads, once each, exactly the nodes one of
// the two trees has and the other lacks — no index node under a
// subtree they share — and beside them only what finding the two
// branches' heads costs.
func TestDiffCountCostsTheDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("imports 100 000 rows")
	}
	s := &readLog{MemStore: store.NewMemStore()}
	tbl, _, edits := benchTable(t, forkbase.NewDBOn(s, postree.DefaultConfig()))
	master, edit := nodesOf(t, tbl, "master"), nodesOf(t, tbl, "edit")
	want := make(map[chunk.ID]bool)
	for id := range master {
		if !edit[id] {
			want[id] = true
		}
	}
	for id := range edit {
		if !master[id] {
			want[id] = true
		}
	}
	head := s.record(func() {
		for _, b := range []string{"master", "edit"} {
			if _, err := tbl.rows(b); err != nil {
				t.Fatal(err)
			}
		}
	})

	reads := s.record(func() {
		added, removed, modified, err := tbl.DiffCount("master", "edit")
		if err != nil || added+removed != 0 || modified != len(edits) {
			t.Fatalf("DiffCount = +%d -%d ~%d, %v; want ~%d", added, removed, modified, err, len(edits))
		}
	})
	nodes := 0
	for id, n := range reads {
		if head[id] == n {
			continue
		}
		if !want[id] || n != 1 {
			t.Fatalf("DiffCount read %s %d times; want each of the %d unshared nodes once and nothing else", id.Short(), n, len(want))
		}
		nodes++
	}
	if nodes != len(want) {
		t.Fatalf("DiffCount read %d nodes; want exactly the %d unshared ones", nodes, len(want))
	}
	t.Logf("DiffCount read %d nodes of trees of %d and %d", nodes, len(master), len(edit))
}

// TestDiffCountAllocatesPerNodeNotPerRow: DiffCount counts the
// differences as the diff streams them, so what it allocates — the two
// heads, the descent's frontiers — does not grow with the rows that
// differ: a 1 000-row rewrite costs a few objects more than a 10-row
// one, not a list of its rows.
func TestDiffCountAllocatesPerNodeNotPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("imports 100 000 rows")
	}
	tbl, rows, edits := benchTable(t, forkbase.Open())
	if err := tbl.Fork(bgCtx, "master", "few"); err != nil {
		t.Fatal(err)
	}
	few := rewriteSlice(rows, 70_000, 1)[:10]
	if err := tbl.Update("few", few, nil); err != nil {
		t.Fatal(err)
	}
	allocs := func(branch string, want int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, _, modified, err := tbl.DiffCount("master", branch); err != nil || modified != want {
				t.Fatalf("DiffCount(master, %s): %d modified, %v; want %d", branch, modified, err, want)
			}
		})
	}
	many, some := allocs("edit", len(edits)), allocs("few", len(few))
	const slack = 2
	if many > some+slack {
		t.Fatalf("DiffCount allocates %.0f objects for %d rewritten rows and %.0f for %d; want at most %d more",
			many, len(edits), some, len(few), slack)
	}
	t.Logf("DiffCount allocations: %.0f for %d rows, %.0f for %d", many, len(edits), some, len(few))
}
