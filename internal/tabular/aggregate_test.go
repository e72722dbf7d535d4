package tabular

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"forkbase"
	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
	"forkbase/internal/workload"
)

// readLog is a store that counts, while recording, the reads of each
// chunk.
type readLog struct {
	*store.MemStore
	mu    sync.Mutex
	reads map[chunk.ID]int
}

func (s *readLog) Get(id chunk.ID) (*chunk.Chunk, error) {
	s.mu.Lock()
	if s.reads != nil {
		s.reads[id]++
	}
	s.mu.Unlock()
	return s.MemStore.Get(id)
}

// record runs f and returns the reads it made of each chunk.
func (s *readLog) record(f func()) map[chunk.ID]int {
	s.mu.Lock()
	s.reads = make(map[chunk.ID]int)
	s.mu.Unlock()
	f()
	s.mu.Lock()
	defer s.mu.Unlock()
	reads := s.reads
	s.reads = nil
	return reads
}

// nodesOf returns the cids of every node of a branch's row Map.
func nodesOf(tb testing.TB, tbl *FBTable, branch string) map[chunk.ID]bool {
	tb.Helper()
	m, err := tbl.rows(branch)
	if err != nil {
		tb.Fatal(err)
	}
	nodes := make(map[chunk.ID]bool)
	if err := m.Tree().Walk(func(id chunk.ID, _ int) (bool, error) {
		nodes[id] = true
		return true, nil
	}); err != nil {
		tb.Fatal(err)
	}
	return nodes
}

// TestAggregateCostsTheDelta holds Aggregate to exact read counts on
// the 100 000-row bench table: a fresh handle reads every node of the
// tree once; the same handle then summing a branch that rewrote a
// 1 000-row slice reads exactly the nodes master's tree lacks, once
// each; and summing that branch again reads no node at all. Beside the
// tree, each sum reads what finding the branch's head costs and nothing
// more.
func TestAggregateCostsTheDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("imports 100 000 rows")
	}
	s := &readLog{MemStore: store.NewMemStore()}
	tbl, _, _ := benchTable(t, forkbase.NewDBOn(s, postree.DefaultConfig()))
	master, edit := nodesOf(t, tbl, "master"), nodesOf(t, tbl, "edit")
	fresh := make(map[chunk.ID]bool)
	for id := range edit {
		if !master[id] {
			fresh[id] = true
		}
	}
	head := map[string]map[chunk.ID]int{}
	for _, b := range []string{"master", "edit"} {
		head[b] = s.record(func() {
			if _, err := tbl.rows(b); err != nil {
				t.Fatal(err)
			}
		})
	}

	// sum runs one Aggregate and checks that it read each of want once,
	// and beside them only the branch's head.
	h := NewFBTable(tbl.db, "bench", RowLayout)
	sum := func(what, branch string, want map[chunk.ID]bool) {
		t.Helper()
		reads := s.record(func() {
			if _, err := h.Aggregate(branch, "int1"); err != nil {
				t.Fatal(err)
			}
		})
		nodes := 0
		for id, n := range reads {
			if head[branch][id] == n {
				continue
			}
			if !want[id] || n != 1 {
				t.Fatalf("%s: read %s %d times; want each of the %d nodes expected once and nothing else", what, id.Short(), n, len(want))
			}
			nodes++
		}
		if nodes != len(want) {
			t.Fatalf("%s: read %d nodes; want exactly %d", what, nodes, len(want))
		}
		t.Logf("%s: %d nodes read", what, nodes)
	}
	sum("cold Aggregate(master)", "master", master)
	sum("then Aggregate(edit)", "edit", fresh)
	sum("Aggregate(edit) again", "edit", nil)
	t.Logf("master's tree has %d nodes, edit's %d, %d of them new", len(master), len(edit), len(fresh))
}

// scriptTable is the model the seeded script checks against: each live
// branch's rows, and for each branch other than master which rows it
// and master changed since the two last met (a fork or a merge), which
// decides whether a merge can go through without conflict.
type scriptTable struct {
	t        *testing.T
	ctx      context.Context
	db       *forkbase.DB
	layout   Layout
	tbl      *FBTable // the long-lived handle whose memos are under test
	rows     map[string][]workload.Record
	changed  map[string]map[int]bool // rows the branch changed
	mChanged map[string]map[int]bool // rows master changed meanwhile
}

// keys returns the keys a branch of the table spans: the row Map (the
// column directory), then in the column layout each column's List.
func (m *scriptTable) keys() []string {
	keys := []string{m.tbl.rowKey()}
	if m.layout == ColLayout {
		for _, col := range Schema {
			keys = append(keys, m.tbl.colKey(col))
		}
	}
	return keys
}

// touched records rows as changed on branch b.
func (m *scriptTable) touched(b string, rows []int) {
	sets := []map[int]bool{m.changed[b]}
	if b == "master" {
		sets = sets[:0]
		for _, set := range m.mChanged {
			sets = append(sets, set)
		}
	}
	for _, set := range sets {
		for _, r := range rows {
			set[r] = true
		}
	}
}

func (m *scriptTable) update(rng *rand.Rand, b string) {
	lo := rng.Intn(len(m.rows[b]))
	n := min(1+rng.Intn(30), len(m.rows[b])-lo)
	recs := make([]workload.Record, n)
	pos := make([]uint64, n)
	idx := make([]int, n)
	for i := range recs {
		recs[i] = m.rows[b][lo+i]
		recs[i].Int1 = rng.Int63n(1 << 40)
		recs[i].Int2 = -rng.Int63n(1 << 20)
		pos[i], idx[i] = uint64(lo+i), lo+i
	}
	if err := m.tbl.Update(b, recs, pos); err != nil {
		m.t.Fatalf("Update %s: %v", b, err)
	}
	m.rows[b] = append([]workload.Record(nil), m.rows[b]...)
	copy(m.rows[b][lo:], recs)
	m.touched(b, idx)
}

// reimport replaces b's contents with a refreshed copy in which a
// stretch of rows has new integers: a from-scratch build that shares
// the untouched stretches' chunks with the tree it replaces.
func (m *scriptTable) reimport(rng *rand.Rand, b string) {
	recs := append([]workload.Record(nil), m.rows[b]...)
	lo := rng.Intn(len(recs))
	var idx []int
	for i := lo; i < min(lo+200, len(recs)); i++ {
		recs[i].Int1 += 1 + rng.Int63n(100)
		recs[i].Int2 -= 1 + rng.Int63n(100)
		idx = append(idx, i)
	}
	if err := m.tbl.Import(b, recs); err != nil {
		m.t.Fatalf("Import %s: %v", b, err)
	}
	m.rows[b] = recs
	m.touched(b, idx)
}

func (m *scriptTable) fork(b string) {
	if err := m.tbl.Fork(m.ctx, "master", b); err != nil {
		m.t.Fatalf("Fork %s: %v", b, err)
	}
	m.rows[b] = m.rows["master"]
	m.changed[b], m.mChanged[b] = map[int]bool{}, map[int]bool{}
}

// merge merges b into master if it can go through without conflict: a
// row Map merges row by row, a column List only as a whole.
func (m *scriptTable) merge(b string) bool {
	for r := range m.changed[b] {
		if m.mChanged[b][r] {
			return false
		}
	}
	if m.layout == ColLayout && len(m.mChanged[b]) > 0 && len(m.changed[b]) > 0 {
		return false
	}
	keys := m.keys()
	if m.layout == ColLayout {
		keys = keys[1:] // the column directory is not read back
	}
	for _, key := range keys {
		if _, conflicts, err := m.db.Merge(m.ctx, key, "master", forkbase.WithBranch(b)); err != nil || len(conflicts) > 0 {
			m.t.Fatalf("Merge %s into master (%s): %v, %d conflicts", b, key, err, len(conflicts))
		}
	}
	merged := append([]workload.Record(nil), m.rows["master"]...)
	rows := make([]int, 0, len(m.changed[b]))
	for r := range m.changed[b] {
		merged[r] = m.rows[b][r]
		rows = append(rows, r)
	}
	m.rows["master"] = merged
	m.changed[b], m.mChanged[b] = map[int]bool{}, map[int]bool{}
	for other := range m.rows {
		if other != "master" && other != b {
			for _, r := range rows {
				m.mChanged[other][r] = true
			}
		}
	}
	return true
}

func (m *scriptTable) remove(b string) {
	for _, key := range m.keys() {
		if err := m.db.RemoveBranch(m.ctx, key, b); err != nil {
			m.t.Fatalf("RemoveBranch %s (%s): %v", b, key, err)
		}
	}
	if _, err := m.db.GC(m.ctx); err != nil {
		m.t.Fatalf("GC: %v", err)
	}
	delete(m.rows, b)
	delete(m.changed, b)
	delete(m.mChanged, b)
}

// check compares, on every live branch and integer column, the
// long-lived handle's Aggregate with a fresh handle's full pass and
// with the model.
func (m *scriptTable) check(step string) {
	for b, rows := range m.rows {
		for _, col := range []string{"int1", "int2"} {
			var want int64
			for _, r := range rows {
				if col == "int1" {
					want += r.Int1
				} else {
					want += r.Int2
				}
			}
			got, err := m.tbl.Aggregate(b, col)
			if err != nil || got != want {
				m.t.Fatalf("%v after %s: Aggregate(%s, %s) = %d, %v on the long-lived handle; the model sums %d", m.layout, step, b, col, got, err, want)
			}
			full, err := NewFBTable(m.db, m.tbl.name, m.layout).Aggregate(b, col)
			if err != nil || full != want {
				m.t.Fatalf("%v after %s: Aggregate(%s, %s) = %d, %v on a fresh handle; the model sums %d", m.layout, step, b, col, full, err, want)
			}
		}
	}
}

// TestAggregateAgreesWithAFullPass drives a seeded script of Update,
// Import, Fork, Merge and RemoveBranch + GC over both layouts; after
// every step one long-lived handle's sums of both integer columns on
// every live branch must equal a fresh handle's and the model's.
func TestAggregateAgreesWithAFullPass(t *testing.T) {
	for _, layout := range []Layout{RowLayout, ColLayout} {
		m := &scriptTable{
			t: t, ctx: context.Background(), layout: layout,
			db:       forkbase.Open(forkbase.Options{ChunkSizeLog2: 8}), // small leaves: trees of height 3 on 1 500 rows
			rows:     map[string][]workload.Record{"master": dataset(1500)},
			changed:  map[string]map[int]bool{},
			mChanged: map[string]map[int]bool{},
		}
		m.tbl = NewFBTable(m.db, "t", layout)
		if err := m.tbl.Import("master", m.rows["master"]); err != nil {
			t.Fatal(err)
		}
		if layout == ColLayout {
			l, err := m.tbl.column("master", "int1")
			if err != nil {
				t.Fatal(err)
			}
			if h := l.Tree().Height(); h < 3 {
				t.Fatalf("column tree of height %d; the script wants index levels to skip", h)
			}
		}
		m.check("Import")
		rng := rand.New(rand.NewSource(int64(24 + layout)))
		forks := 0
		ran := map[string]int{}
		for step := 0; step < 80; step++ {
			var branches []string
			for b := range m.rows {
				branches = append(branches, b)
			}
			sort.Strings(branches)
			b := branches[rng.Intn(len(branches))]
			var op string
			switch n := rng.Intn(20); {
			case n < 7:
				op = "Update"
				m.update(rng, b)
			case n < 9:
				op = "Import"
				m.reimport(rng, b)
			case n < 13 && len(branches) < 5:
				op, forks = "Fork", forks+1
				b = fmt.Sprintf("b%02d", forks)
				m.fork(b)
			case n < 18 && b != "master":
				if !m.merge(b) {
					continue
				}
				op = "Merge"
			case b != "master":
				op = "RemoveBranch+GC"
				m.remove(b)
			default:
				continue
			}
			ran[op]++
			m.check(op + " " + b)
		}
		if len(ran) != 5 {
			t.Fatalf("%v: the script ran %v; it must run every kind of step", layout, ran)
		}
		t.Logf("%v: %v", layout, ran)
	}
}

// TestAggregateConcurrentlyOnOneHandle: goroutines summing different
// branches and columns through one handle share its memos and agree
// with the sums each branch has. Run it under -race.
func TestAggregateConcurrentlyOnOneHandle(t *testing.T) {
	for _, layout := range []Layout{RowLayout, ColLayout} {
		db := forkbase.Open(forkbase.Options{ChunkSizeLog2: 8})
		tbl := NewFBTable(db, "t", layout)
		rows := dataset(1500)
		if err := tbl.Import("master", rows); err != nil {
			t.Fatal(err)
		}
		type key struct{ branch, col string }
		want := map[key]int64{}
		for i := 0; i < 4; i++ {
			b := fmt.Sprintf("b%d", i)
			if err := tbl.Fork(context.Background(), "master", b); err != nil {
				t.Fatal(err)
			}
			lo := i * 300
			recs := append([]workload.Record(nil), rows[lo:lo+50]...)
			pos := make([]uint64, len(recs))
			for j := range recs {
				recs[j].Int1 += int64(i + 1)
				recs[j].Int2 -= int64(i + 1)
				pos[j] = uint64(lo + j)
			}
			if err := tbl.Update(b, recs, pos); err != nil {
				t.Fatal(err)
			}
			for _, col := range []string{"int1", "int2"} {
				sum, err := NewFBTable(db, "t", layout).Aggregate(b, col)
				if err != nil {
					t.Fatal(err)
				}
				want[key{b, col}] = sum
			}
		}
		var keys []key
		for k := range want {
			keys = append(keys, k)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					k := keys[(g*7+i)%len(keys)]
					if got, err := tbl.Aggregate(k.branch, k.col); err != nil || got != want[k] {
						t.Errorf("%v: Aggregate(%s, %s) = %d, %v; want %d", layout, k.branch, k.col, got, err, want[k])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
