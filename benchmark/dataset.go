package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"forkbase"
	"forkbase/internal/tabular"
	"forkbase/internal/workload"
)

// dataset-embedded: the collaborative-analytics case with no socket.
// One analyst session forks a 100 000-row table, rewrites a slice of
// it, diffs and aggregates the branch, reads rows back, merges some
// branches into master and drops the rest; each cycle ends with a
// collection (garbage from the dropped branches and the previous
// scratch table) and a fresh bulk import. The same layers as the
// ledger, used differently: bulk tree builds beside point edits, diff
// and three-way merge, full scans, GC and segment compaction inside
// the timed window.

type datasetConfig struct {
	rows        int
	sliceRows   int // rows one round rewrites: 1 % of the table
	scratchRows int // rows of the table imported afresh each cycle
	cycleRounds int // rounds between collections
	mergeEvery  int // every n-th round's branch is merged into master
	gets        int // point reads per round
	cacheBytes  int64
	streamLen   int // rounds generated
}

func datasetSizes(smoke bool) datasetConfig {
	if smoke {
		return datasetConfig{rows: 2_000, sliceRows: 20, scratchRows: 500, cycleRounds: 4, mergeEvery: 2, gets: 4, cacheBytes: 256 << 20, streamLen: 1 << 8}
	}
	return datasetConfig{rows: 100_000, sliceRows: 1_000, scratchRows: 25_000, cycleRounds: 8, mergeEvery: 4, gets: 20, cacheBytes: 256 << 20, streamLen: 1 << 12}
}

const (
	datasetTable  = "main"
	datasetMaster = "master"
)

// datasetRound is one generated round: which slice of the table the
// branch rewrites, and the seed the new field values and the rows read
// back derive from.
type datasetRound struct {
	slot int
	seed int64
}

type datasetWorkload struct {
	cfg    datasetConfig
	pool   []byte
	stream []datasetRound
	pos    int

	// model: master's rows and the sum of their int1 column.
	master      []workload.Record
	masterSum   int64
	masterBytes int64 // logical size of the table, what a full scan reads
	scratch     []workload.Record
	live        []string // this cycle's branches
	cycle       int

	db  *forkbase.DB
	tbl *tabular.FBTable
	gc  forkbase.GCStats
}

// genDatasetStream gives every cycle a fresh set of disjoint slices:
// the first cycleRounds entries of a random permutation of the table's
// slices, so no two live branches touch the same rows and merges never
// conflict.
func genDatasetStream(seed int64, cfg datasetConfig) []datasetRound {
	rng := rand.New(rand.NewSource(subSeed(seed, 50)))
	rounds := make([]datasetRound, 0, cfg.streamLen)
	for len(rounds) < cfg.streamLen {
		perm := rng.Perm(cfg.rows / cfg.sliceRows)
		for _, slot := range perm[:cfg.cycleRounds] {
			rounds = append(rounds, datasetRound{slot: slot, seed: rng.Int63()})
		}
	}
	return rounds
}

func (w *datasetWorkload) clients() int { return 1 }

// payload is one slice's worth of encoded rows.
func (w *datasetWorkload) payload() []byte {
	var out []byte
	for _, r := range w.master[:w.cfg.sliceRows] {
		out = append(out, r.PK...)
		out = append(out, r.Text1...)
		out = append(out, r.Text2...)
	}
	return out
}

func recordBytes(r workload.Record) int64 {
	return int64(len(r.PK) + 16 + len(r.Text1) + len(r.Text2))
}

func recordsBytes(rs []workload.Record) (n int64) {
	for _, r := range rs {
		n += recordBytes(r)
	}
	return n
}

func rowsKey(table string) string { return "tbl/" + table + "/rows" }

func (w *datasetWorkload) setup(ctx context.Context, env *env) error {
	w.cfg = datasetSizes(env.smoke)
	w.pool = fastText(rand.New(rand.NewSource(subSeed(env.seed, 4))), 1<<16)
	w.stream = genDatasetStream(env.seed, w.cfg)
	w.pos, w.cycle, w.live, w.gc = 0, 0, nil, forkbase.GCStats{}
	w.master = workload.Dataset(subSeed(env.seed, 5), w.cfg.rows)
	w.scratch = workload.Dataset(subSeed(env.seed, 6), w.cfg.scratchRows)
	w.masterSum, w.masterBytes = 0, recordsBytes(w.master)
	for _, r := range w.master {
		w.masterSum += r.Int1
	}
	var err error
	if w.db, err = forkbase.OpenPath(filepath.Join(env.dir, "dataset"), forkbase.WithCacheBytes(w.cfg.cacheBytes)); err != nil {
		return err
	}
	w.tbl = tabular.NewFBTable(w.db, datasetTable, tabular.RowLayout)
	if err := w.tbl.Import(datasetMaster, w.master); err != nil {
		return fmt.Errorf("import: %w", err)
	}
	return nil
}

// rewrite returns the slice's rows with new int1 and text2 fields.
func (w *datasetWorkload) rewrite(rng *rand.Rand, lo int) []workload.Record {
	out := make([]workload.Record, w.cfg.sliceRows)
	for i := range out {
		r := w.master[lo+i]
		r.Int1 += 1 + rng.Int63n(1000)
		n := 40 + rng.Intn(60)
		off := rng.Intn(len(w.pool) - n)
		r.Text2 = string(w.pool[off : off+n])
		out[i] = r
	}
	return out
}

func (w *datasetWorkload) step(ctx context.Context, _ int, rec *recorder) {
	round := w.stream[w.pos%len(w.stream)]
	branch := fmt.Sprintf("r%06d", w.pos)
	w.pos++
	rng := rand.New(rand.NewSource(round.seed))
	lo := round.slot * w.cfg.sliceRows
	edits := w.rewrite(rng, lo)
	branchSum := w.masterSum
	for i, r := range edits {
		branchSum += r.Int1 - w.master[lo+i].Int1
	}

	// Write: fork master, rewrite the slice on the branch.
	t := rec.begin(classWrite, "Fork+Update")
	end := rec.child("tabular", "Fork")
	err := w.tbl.Fork(ctx, datasetMaster, branch)
	end()
	if err == nil {
		end = rec.child("tabular", "Update")
		err = w.tbl.Update(branch, edits, nil)
		end()
	}
	rec.lap(&t)
	if err != nil {
		rec.fail("dataset Fork+Update %s: %v", branch, err)
	}
	n := recordsBytes(edits)
	rec.end(t, err == nil, n, n)
	if err != nil {
		return
	}
	w.live = append(w.live, branch)

	// Scan: what changed against master, and the branch's new total.
	t = rec.begin(classScan, "DiffCount+Aggregate")
	end = rec.child("tabular", "DiffCount")
	added, removed, modified, err := w.tbl.DiffCount(datasetMaster, branch)
	end()
	var total int64
	if err == nil {
		end = rec.child("tabular", "Aggregate")
		total, err = w.tbl.Aggregate(branch, "int1")
		end()
	}
	rec.lap(&t)
	ok := err == nil && added == 0 && removed == 0 && modified == len(edits) && total == branchSum
	if !ok {
		rec.fail("dataset scan %s: err=%v, diff +%d -%d ~%d (want ~%d), sum %d (want %d)", branch, err, added, removed, modified, len(edits), total, branchSum)
	}
	rec.end(t, ok, w.masterBytes, 0)

	// Reads: rows of the branch, a quarter of them inside the rewritten
	// slice (just written, so hotter) — a minority, so that the median
	// sits among the rows read cold and not between the two kinds.
	for i := 0; i < w.cfg.gets; i++ {
		row := rng.Intn(w.cfg.rows)
		if i%4 == 0 {
			row = lo + rng.Intn(w.cfg.sliceRows)
		}
		want := w.master[row]
		if row >= lo && row < lo+w.cfg.sliceRows {
			want = edits[row-lo]
		}
		t := rec.begin(classRead, "Get")
		got, found, err := w.tbl.Get(branch, want.PK)
		rec.lap(&t)
		ok := err == nil && found && got == want
		if !ok {
			rec.fail("dataset Get %s/%s: err=%v found=%v, row differs from the model", branch, want.PK, err, found)
		}
		rec.end(t, ok, recordBytes(want), 0)
	}

	inCycle := w.pos % w.cfg.cycleRounds
	if w.pos%w.cfg.mergeEvery == 0 {
		t := rec.begin(classWrite, "Merge")
		_, conflicts, err := w.db.Merge(ctx, rowsKey(datasetTable), datasetMaster, forkbase.WithBranch(branch))
		rec.lap(&t)
		ok := err == nil && len(conflicts) == 0
		if ok {
			copy(w.master[lo:], edits)
			w.masterSum = branchSum
		} else {
			rec.fail("dataset Merge %s: err=%v, %d conflicts", branch, err, len(conflicts))
		}
		rec.end(t, ok, n, n)
	}
	if inCycle == 0 {
		w.endCycle(ctx, rec)
	}
}

// endCycle drops the cycle's branches and the previous scratch table,
// collects, checks that what is still live is still readable, and
// imports the next scratch table.
func (w *datasetWorkload) endCycle(ctx context.Context, rec *recorder) {
	for _, b := range w.live {
		err := w.db.RemoveBranch(ctx, rowsKey(datasetTable), b)
		rec.check(err == nil, "dataset RemoveBranch %s: %v", b, err)
	}
	w.live = w.live[:0]
	if w.cycle > 0 {
		err := w.db.RemoveBranch(ctx, rowsKey(w.scratchName(w.cycle-1)), datasetMaster)
		rec.check(err == nil, "dataset drop %s: %v", w.scratchName(w.cycle-1), err)
	}
	end := rec.child("gc", "GC")
	st, err := w.db.GC(ctx)
	end()
	rec.check(err == nil, "dataset GC: %v", err)
	w.gc.Add(st)
	rec.mark(w.db.Stats().Bytes)

	count, err := w.tbl.Count(datasetMaster)
	rec.check(err == nil && count == uint64(w.cfg.rows), "dataset after GC: master has %d rows, err=%v", count, err)
	for row := 0; row < w.cfg.rows; row += w.cfg.rows/16 + 1 {
		got, found, err := w.tbl.Get(datasetMaster, w.master[row].PK)
		rec.check(err == nil && found && got == w.master[row], "dataset after GC: master row %s unreadable or changed (err=%v)", w.master[row].PK, err)
	}

	// A fresh table, every row new to the store.
	for i := range w.scratch {
		w.scratch[i].Int1++
	}
	t := rec.begin(classWrite, "Import")
	err = tabular.NewFBTable(w.db, w.scratchName(w.cycle), tabular.RowLayout).Import(datasetMaster, w.scratch)
	rec.lap(&t)
	if err != nil {
		rec.fail("dataset Import %s: %v", w.scratchName(w.cycle), err)
	}
	n := recordsBytes(w.scratch)
	rec.end(t, err == nil, n, n)
	w.cycle++
}

func (w *datasetWorkload) scratchName(cycle int) string { return fmt.Sprintf("scratch%04d", cycle) }

// verify scans master in full and compares every row with the model.
func (w *datasetWorkload) verify(ctx context.Context, rec *recorder) {
	i := 0
	same := true
	err := w.tbl.Scan(datasetMaster, func(r workload.Record) bool {
		same = same && i < len(w.master) && r == w.master[i]
		i++
		return same
	})
	rec.check(err == nil && same && i == len(w.master), "dataset final: master differs from the model at row %d (err=%v)", i, err)
	total, err := w.tbl.Aggregate(datasetMaster, "int1")
	rec.check(err == nil && total == w.masterSum, "dataset final: sum %d, want %d (err=%v)", total, w.masterSum, err)
	for _, b := range w.live {
		_, err := w.tbl.Count(b)
		rec.check(err == nil, "dataset final: live branch %s unreadable: %v", b, err)
	}
}

func (w *datasetWorkload) counters() counters {
	return counters{store: w.db.Stats(), db: w.db.MetricsSnapshot(), gc: w.gc}
}

func (w *datasetWorkload) close() error {
	if w.db != nil {
		return w.db.Close()
	}
	return nil
}
