package blockchain

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"forkbase"
	"forkbase/internal/workload"
)

// ctx is the shared root for tests: nothing here exercises cancellation.
var ctx = context.Background()

// TestLedgerMatchesModel drives a seeded YCSB script, read-only blocks
// included, through a Ledger and checks every query after every block
// against a model built from plain Go maps: the committed state of each
// block, and each key's value history.
func TestLedgerMatchesModel(t *testing.T) {
	const blocks, txPerBlock, opsPerTx, keys = 12, 5, 2, 16
	n := NewNative(forkbase.Open(), "kv")
	l := NewLedger(n, txPerBlock)
	mixed := workload.NewYCSB(workload.YCSBConfig{Seed: 1, Keys: keys, ReadRatio: 0.3, ValueSize: 24})
	readOnly := workload.NewYCSB(workload.YCSBConfig{Seed: 2, Keys: keys, ReadRatio: 1})

	names := []string{"never-written"}
	for i := 0; i < keys; i++ {
		names = append(names, workload.Key(i))
	}
	var states []map[string]string   // states[h]: the state committed by block h
	latest := map[string]string{}    // the state committed by the last block
	history := map[string][]string{} // every committed value of a key, oldest first

	for b := 0; b < blocks; b++ {
		gen := mixed
		if b%4 == 2 {
			gen = readOnly
		}
		dirty := map[string]string{}
		for i := 0; i < txPerBlock; i++ {
			tx := Tx{Contract: "kv"}
			for j := 0; j < opsPerTx; j++ {
				op := gen.Next()
				tx.Ops = append(tx.Ops, Op{Key: op.Key, Value: op.Value, Read: op.Read})
				if !op.Read {
					dirty[op.Key] = string(op.Value)
				}
			}
			if err := l.Submit(ctx, tx); err != nil {
				t.Fatalf("block %d tx %d: %v", b, i, err)
			}
		}
		for k, v := range dirty {
			latest[k] = v
			history[k] = append(history[k], v)
		}
		snap := make(map[string]string, len(latest))
		for k, v := range latest {
			snap[k] = v
		}
		states = append(states, snap)

		if l.Height() != b+1 {
			t.Fatalf("block %d: height %d", b, l.Height())
		}
		if err := l.VerifyChain(); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		for _, k := range names {
			got, err := n.Read(ctx, k)
			if err != nil {
				t.Fatalf("block %d: read %s: %v", b, k, err)
			}
			want, ok := latest[k]
			if string(got) != want || ok == (got == nil) {
				t.Fatalf("block %d: read %s = %q, want %q", b, k, got, want)
			}
		}
		for h := 0; h <= b; h++ {
			got, err := n.BlockScan(ctx, uint64(h))
			if err != nil {
				t.Fatalf("block %d: block scan %d: %v", b, h, err)
			}
			if !sameState(got, states[h]) {
				t.Fatalf("block %d: block scan %d = %q, want %q", b, h, got, states[h])
			}
		}
		if _, err := n.BlockScan(ctx, uint64(b+1)); err == nil {
			t.Fatalf("block %d: block scan of the next block succeeded", b)
		}
		for _, max := range []int{0, 1, 2, blocks + 1} {
			want := map[string][]string{}
			for _, k := range names {
				w := newestFirst(history[k], max)
				got, err := n.StateScan(ctx, k, max)
				if err != nil {
					t.Fatalf("block %d: state scan %s max %d: %v", b, k, max, err)
				}
				if !sameHistory(got, w) {
					t.Fatalf("block %d: state scan %s max %d = %q, want %q", b, k, max, got, w)
				}
				if len(w) > 0 {
					want[k] = w
				}
			}
			got, err := n.ScanStates(ctx, names, max)
			if err != nil {
				t.Fatalf("block %d: scan states max %d: %v", b, max, err)
			}
			if len(got) != len(want) {
				t.Fatalf("block %d: scan states max %d covers %d keys, want %d", b, max, len(got), len(want))
			}
			for k, w := range want {
				if !sameHistory(got[k], w) {
					t.Fatalf("block %d: scan states %s max %d = %q, want %q", b, k, max, got[k], w)
				}
			}
		}
	}
}

// newestFirst returns up to max entries of hist, newest first.
func newestFirst(hist []string, max int) []string {
	var out []string
	for i := len(hist) - 1; i >= 0 && len(out) < max; i-- {
		out = append(out, hist[i])
	}
	return out
}

func sameState(got map[string][]byte, want map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok || string(g) != v {
			return false
		}
	}
	return true
}

func sameHistory(got [][]byte, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if string(got[i]) != want[i] {
			return false
		}
	}
	return true
}

func TestBlockScanHistorical(t *testing.T) {
	n := NewNative(forkbase.Open(), "kv")
	l := NewLedger(n, 1)
	// Block h writes key "k" = "v<h>".
	for h := 0; h < 5; h++ {
		if err := l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{
			{Key: "k", Value: []byte(fmt.Sprintf("v%d", h))},
			{Key: fmt.Sprintf("only-%d", h), Value: []byte("x")},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < 5; h++ {
		state, err := n.BlockScan(ctx, uint64(h))
		if err != nil {
			t.Fatal(err)
		}
		if string(state["k"]) != fmt.Sprintf("v%d", h) {
			t.Fatalf("block %d state k = %q", h, state["k"])
		}
		// Keys created later must be absent.
		if _, ok := state[fmt.Sprintf("only-%d", h+1)]; ok {
			t.Fatalf("block %d sees a future key", h)
		}
		// Keys created earlier must be present.
		if h > 0 {
			if _, ok := state[fmt.Sprintf("only-%d", h-1)]; !ok {
				t.Fatalf("block %d lost a past key", h)
			}
		}
	}
}

func TestStateScanOrder(t *testing.T) {
	n := NewNative(forkbase.Open(), "kv")
	l := NewLedger(n, 1)
	for h := 0; h < 6; h++ {
		if err := l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "x", Value: []byte(fmt.Sprintf("v%d", h))}}}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := n.StateScan(ctx, "x", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 6 {
		t.Fatalf("history length %d, want 6", len(hist))
	}
	for i, v := range hist {
		want := fmt.Sprintf("v%d", 5-i)
		if string(v) != want {
			t.Fatalf("hist[%d] = %q, want %q", i, v, want)
		}
	}
	// Limited scan.
	hist, _ = n.StateScan(ctx, "x", 2)
	if len(hist) != 2 || string(hist[0]) != "v5" {
		t.Fatalf("limited scan: %v", hist)
	}
	// Missing key.
	if h, err := n.StateScan(ctx, "never-written", 5); err != nil || len(h) != 0 {
		t.Fatalf("missing key scan: %v %v", h, err)
	}
}

// TestStateScanNonPositiveMax pins that a scan asking for no entries
// returns an empty history, not an error from the version walk.
func TestStateScanNonPositiveMax(t *testing.T) {
	n := NewNative(forkbase.Open(), "kv")
	l := NewLedger(n, 1)
	for h := 0; h < 3; h++ {
		if err := l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "x", Value: []byte(fmt.Sprintf("v%d", h))}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, max := range []int{0, -1} {
		if h, err := n.StateScan(ctx, "x", max); err != nil || len(h) != 0 {
			t.Fatalf("state scan max %d: %q %v", max, h, err)
		}
		if m, err := n.ScanStates(ctx, []string{"x"}, max); err != nil || len(m) != 0 {
			t.Fatalf("scan states max %d: %q %v", max, m, err)
		}
	}
}

// TestCommitRejectsOutOfSequenceHeight pins that Commit takes only the
// next height, and that a rejected commit records nothing: the write
// buffer survives for the commit that follows.
func TestCommitRejectsOutOfSequenceHeight(t *testing.T) {
	n := NewNative(forkbase.Open(), "kv")
	n.BufferWrite("k", []byte("v0"))
	if _, err := n.Commit(ctx, 0); err != nil {
		t.Fatal(err)
	}
	n.BufferWrite("k", []byte("v1"))
	for _, h := range []uint64{0, 3} {
		if _, err := n.Commit(ctx, h); err == nil {
			t.Fatalf("commit at height %d after block 0 succeeded", h)
		}
	}
	if _, err := n.BlockScan(ctx, 1); err == nil {
		t.Fatal("a rejected commit recorded block 1")
	}
	if v, err := n.Read(ctx, "k"); err != nil || string(v) != "v0" {
		t.Fatalf("read after rejected commits: %q %v", v, err)
	}
	if _, err := n.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for h, want := range []string{"v0", "v1"} {
		state, err := n.BlockScan(ctx, uint64(h))
		if err != nil || string(state["k"]) != want {
			t.Fatalf("block %d: k = %q %v, want %q", h, state["k"], err, want)
		}
	}
}

func TestChainTamperDetection(t *testing.T) {
	l := NewLedger(NewNative(forkbase.Open(), "kv"), 2)
	for i := 0; i < 10; i++ {
		l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "k", Value: []byte{byte(i)}}}})
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	l.blocks[2].StateRef = []byte("forged")
	if err := l.VerifyChain(); err == nil {
		t.Fatal("forged block passed verification")
	}
}

func TestReadsDoNotSeeBuffer(t *testing.T) {
	n := NewNative(forkbase.Open(), "kv")
	l := NewLedger(n, 100) // never auto-commits
	l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "k", Value: []byte("buffered")}}})
	v, err := n.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("read observed the write buffer: %q", v)
	}
	l.CommitBlock(ctx)
	v, _ = n.Read(ctx, "k")
	if string(v) != "buffered" {
		t.Fatalf("read after commit: %q", v)
	}
}

func TestStateRefsDifferAcrossBlocks(t *testing.T) {
	l := NewLedger(NewNative(forkbase.Open(), "kv"), 1)
	l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "a", Value: []byte("1")}}})
	l.Submit(ctx, Tx{Contract: "kv", Ops: []Op{{Key: "a", Value: []byte("2")}}})
	if bytes.Equal(l.Block(0).StateRef, l.Block(1).StateRef) {
		t.Fatal("state commitment did not change across blocks")
	}
}
