package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"

	"forkbase"
	"forkbase/internal/blockchain"
)

// ledger-embedded: the blockchain case with no socket. One writer
// drives blockchain.Ledger over the native ForkBase backend on a
// file-backed store whose cache holds the whole working set. The
// bypass workload for every change to the serving path.

type ledgerConfig struct {
	accounts   int
	blockTxs   int
	valueBytes int
	cacheBytes int64
	streamLen  int // transactions generated
	scanEvery  int // blocks between bursts of state scans
	scanBurst  int
	scanMax    int // versions a state scan asks for
	blockScan  int // blocks between block scans
}

func ledgerSizes(smoke bool) ledgerConfig {
	if smoke {
		return ledgerConfig{accounts: 200, blockTxs: 20, valueBytes: 200, cacheBytes: 256 << 20, streamLen: 1 << 12, scanEvery: 4, scanBurst: 2, scanMax: 16, blockScan: 10}
	}
	return ledgerConfig{accounts: 10_000, blockTxs: 100, valueBytes: 200, cacheBytes: 128 << 20, streamLen: 1 << 20, scanEvery: 10, scanBurst: 10, scanMax: 16, blockScan: 100}
}

const ledgerContract = "kv"

// ledgerTx is one generated transaction: read one account, write
// another. aux feeds the scans that follow a block: which accounts,
// which past height.
type ledgerTx struct {
	read, write uint32
	aux         uint32
}

// ledgerCommit is one committed version of an account in the model.
type ledgerCommit struct {
	height uint32
	ver    uint32
}

type ledgerWorkload struct {
	cfg    ledgerConfig
	pool   []byte
	names  []string
	stream []ledgerTx
	pos    int

	// model: every committed version per account, oldest first; the
	// versions written in the open block; the next version number.
	hist    [][]ledgerCommit
	dirty   map[uint32]uint32
	open    int // transactions in the open block
	nextVer []uint32
	scratch []byte

	db     *forkbase.DB
	native *blockchain.Native
	ledger *blockchain.Ledger
}

func genLedgerStream(seed int64, cfg ledgerConfig) []ledgerTx {
	rng := rand.New(rand.NewSource(subSeed(seed, 40)))
	txs := make([]ledgerTx, cfg.streamLen)
	for i := range txs {
		txs[i] = ledgerTx{read: uint32(rng.Intn(cfg.accounts)), write: uint32(rng.Intn(cfg.accounts)), aux: rng.Uint32()}
	}
	return txs
}

func (w *ledgerWorkload) clients() int    { return 1 }
func (w *ledgerWorkload) payload() []byte { return append([]byte(nil), w.value(0, 0)...) }

func (w *ledgerWorkload) value(account, ver uint32) []byte {
	fillValue(w.scratch, w.pool, uint64(account), uint64(ver))
	return w.scratch
}

func (w *ledgerWorkload) setup(ctx context.Context, env *env) error {
	w.cfg = ledgerSizes(env.smoke)
	w.pool = fastText(rand.New(rand.NewSource(subSeed(env.seed, 3))), 1<<16)
	w.stream = genLedgerStream(env.seed, w.cfg)
	w.pos = 0
	w.scratch = make([]byte, w.cfg.valueBytes)
	w.names = make([]string, w.cfg.accounts)
	w.hist = make([][]ledgerCommit, w.cfg.accounts)
	w.nextVer = make([]uint32, w.cfg.accounts)
	w.dirty = make(map[uint32]uint32)
	var err error
	if w.db, err = forkbase.OpenPath(filepath.Join(env.dir, "ledger"), forkbase.WithCacheBytes(w.cfg.cacheBytes)); err != nil {
		return err
	}
	var st forkbase.Store = w.db
	if env.tr != nil {
		st = spanAPI{Store: w.db, tr: env.tr, layer: "core"}
	}
	w.native = blockchain.NewNative(st, ledgerContract)
	w.ledger = blockchain.NewLedger(w.native, w.cfg.blockTxs)
	// Genesis: every account gets its version 0, a block at a time.
	for i := range w.names {
		w.names[i] = fmt.Sprintf("acct%06d", i)
		if err := w.write(ctx, uint32(i)); err != nil {
			return fmt.Errorf("genesis %s: %w", w.names[i], err)
		}
	}
	if err := w.ledger.CommitBlock(ctx); err != nil {
		return err
	}
	w.committed()
	return nil
}

// write submits a one-write transaction and advances the model. The
// ledger commits by itself when the block fills.
func (w *ledgerWorkload) write(ctx context.Context, account uint32) error {
	ver := w.nextVer[account]
	before := w.ledger.Height()
	err := w.ledger.Submit(ctx, blockchain.Tx{Contract: ledgerContract, Ops: []blockchain.Op{{Key: w.names[account], Value: w.value(account, ver)}}})
	if err != nil {
		return err
	}
	w.nextVer[account]++
	w.dirty[account] = ver
	w.open++
	if w.ledger.Height() != before {
		w.committed()
	}
	return nil
}

// committed moves the open block's writes into the model's history.
func (w *ledgerWorkload) committed() {
	height := uint32(w.ledger.Height() - 1)
	for account, ver := range w.dirty {
		w.hist[account] = append(w.hist[account], ledgerCommit{height: height, ver: ver})
	}
	w.dirty = make(map[uint32]uint32)
	w.open = 0
}

func (w *ledgerWorkload) step(ctx context.Context, _ int, rec *recorder) {
	tx := w.stream[w.pos%len(w.stream)]
	w.pos++

	// State read: sees the last committed version, not the open block.
	t := rec.begin(classRead, "Read")
	got, err := w.native.Read(ctx, w.names[tx.read])
	rec.lap(&t)
	h := w.hist[tx.read]
	ok := err == nil && bytes.Equal(got, w.value(tx.read, h[len(h)-1].ver))
	if !ok {
		rec.fail("ledger Read %s: err=%v, not committed version %d", w.names[tx.read], err, h[len(h)-1].ver)
	}
	rec.end(t, ok, int64(len(got)), 0)

	// Write: buffered, except that the block's last one commits it —
	// that submit is the write-class sample.
	before := w.ledger.Height()
	fills := w.open == w.cfg.blockTxs-1
	var ct opTimer
	if fills {
		ct = rec.begin(classWrite, "CommitBlock")
	}
	err = w.write(ctx, tx.write)
	if fills {
		rec.lap(&ct)
		ok := err == nil && w.ledger.Height() == before+1
		if !ok {
			rec.fail("ledger commit at height %d: err=%v", before, err)
		}
		n := int64(w.cfg.blockTxs * w.cfg.valueBytes)
		rec.end(ct, ok, n, n)
	} else if err != nil {
		rec.check(false, "ledger Submit: %v", err)
	}
	if !fills {
		return
	}
	blocks := w.ledger.Height()
	if blocks%w.cfg.scanEvery == 0 {
		for i := 0; i < w.cfg.scanBurst; i++ {
			w.stateScan(ctx, rec, (tx.aux+uint32(i)*2654435761)%uint32(w.cfg.accounts))
		}
	}
	if blocks%w.cfg.blockScan == 0 {
		w.blockScan(ctx, rec, tx.aux%uint32(blocks))
	}
}

// stateScan checks an account's history, newest first.
func (w *ledgerWorkload) stateScan(ctx context.Context, rec *recorder, account uint32) {
	t := rec.begin(classScan, "StateScan")
	got, err := w.native.StateScan(ctx, w.names[account], w.cfg.scanMax)
	rec.lap(&t)
	h := w.hist[account]
	want := len(h)
	if want > w.cfg.scanMax {
		want = w.cfg.scanMax
	}
	ok := err == nil && len(got) == want
	var n int64
	for i := 0; ok && i < len(got); i++ {
		ok = bytes.Equal(got[i], w.value(account, h[len(h)-1-i].ver))
		n += int64(len(got[i]))
	}
	if !ok {
		rec.fail("ledger StateScan %s: err=%v, got %d versions, want %d", w.names[account], err, len(got), want)
	}
	rec.end(t, ok, n, 0)
}

// blockScan checks every account's value as of a past block.
func (w *ledgerWorkload) blockScan(ctx context.Context, rec *recorder, height uint32) {
	t := rec.begin(classScan, "BlockScan")
	got, err := w.native.BlockScan(ctx, uint64(height))
	rec.lap(&t)
	ok := err == nil
	var n int64
	for account, h := range w.hist {
		if !ok {
			break
		}
		// The last version committed at or below the height.
		i := len(h) - 1
		for i >= 0 && h[i].height > height {
			i--
		}
		v, present := got[w.names[account]]
		if i < 0 {
			ok = !present
			continue
		}
		ok = present && bytes.Equal(v, w.value(uint32(account), h[i].ver))
		n += int64(len(v))
	}
	if !ok {
		rec.fail("ledger BlockScan %d: err=%v, state differs from the model", height, err)
	}
	rec.end(t, ok, n, 0)
}

// verify re-computes the hash chain, then reads every account and the
// full history of a sample of them.
func (w *ledgerWorkload) verify(ctx context.Context, rec *recorder) {
	err := w.ledger.VerifyChain()
	rec.check(err == nil, "ledger VerifyChain: %v", err)
	for account, h := range w.hist {
		got, err := w.native.Read(ctx, w.names[account])
		rec.check(err == nil && bytes.Equal(got, w.value(uint32(account), h[len(h)-1].ver)),
			"ledger final %s: err=%v, not committed version %d", w.names[account], err, h[len(h)-1].ver)
	}
	var scans recorder
	for account := 0; account < len(w.hist); account += len(w.hist)/100 + 1 {
		w.stateScan(ctx, &scans, uint32(account))
	}
	rec.check(scans.firstErr == "", "ledger final StateScan: %s", scans.firstErr)
}

func (w *ledgerWorkload) counters() counters {
	return counters{store: w.db.Stats(), db: w.db.MetricsSnapshot()}
}

func (w *ledgerWorkload) close() error {
	if w.db != nil {
		return w.db.Close()
	}
	return nil
}
