package bench

import (
	"fmt"
	"io"
	"time"

	"forkbase"
	"forkbase/internal/blockchain"
	"forkbase/internal/workload"
)

// RunFig9 reproduces Figure 9: 95th-percentile latency of blockchain
// read, write and commit operations as the number of updates grows
// (b=50, r=w=0.5).
func RunFig9(w io.Writer, scale Scale) error {
	updatesList := []int{scale.pick(1_000, 10_000), scale.pick(4_000, 100_000), scale.pick(16_000, 1_000_000)}
	const blockSize = 50
	fmt.Fprintln(w, "Figure 9: 95th-percentile latency of blockchain operations (b=50, r=w=0.5)")
	t := newTable(w, 10, 14, 12, 12, 12)
	t.row("#Updates", "Backend", "Read", "Write", "Commit")

	for _, updates := range updatesList {
		n := blockchain.NewNative(forkbase.Open(), "kv")
		var reads, writes, commits stopwatch
		var height uint64
		y := workload.NewYCSB(workload.YCSBConfig{Seed: 5, Keys: updates, ReadRatio: 0.5, ValueSize: 100})
		pending := 0
		for i := 0; i < 2*updates; i++ {
			op := y.Next()
			if op.Read {
				reads.time(func() {
					if _, err := n.Read(bgCtx, op.Key); err != nil {
						panic(err)
					}
				})
				continue
			}
			writes.time(func() { n.BufferWrite(op.Key, op.Value) })
			pending++
			if pending == blockSize {
				commits.time(func() {
					if _, err := n.Commit(bgCtx, height); err != nil {
						panic(err)
					}
				})
				height++
				pending = 0
			}
		}
		t.row(updates, "ForkBase",
			fmt.Sprintf("%.3fms", ms(reads.percentile(95))),
			fmt.Sprintf("%.3fms", ms(writes.percentile(95))),
			fmt.Sprintf("%.3fms", ms(commits.percentile(95))))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// RunFig11 reproduces Figure 11: the distribution (CDF) of commit
// latency when the block's state commitment is a ForkBase Map object.
func RunFig11(w io.Writer, scale Scale) error {
	commits := scale.pick(100, 1000)
	const blockSize = 50
	keys := scale.pick(20_000, 100_000)
	fmt.Fprintln(w, "Figure 11: Commit latency distribution")
	t := newTable(w, 14, 12, 12, 12, 12)
	t.row("Structure", "p10", "p50", "p90", "p99")

	n := blockchain.NewNative(forkbase.Open(), "kv")
	y := workload.NewYCSB(workload.YCSBConfig{Seed: 7, Keys: keys, ReadRatio: 0, ValueSize: 100})
	var lat stopwatch
	for c := 0; c < commits; c++ {
		for i := 0; i < blockSize; i++ {
			op := y.Next()
			n.BufferWrite(op.Key, op.Value)
		}
		lat.time(func() {
			if _, err := n.Commit(bgCtx, uint64(c)); err != nil {
				panic(err)
			}
		})
	}
	t.row("ForkBase",
		fmt.Sprintf("%.2fms", ms(lat.percentile(10))),
		fmt.Sprintf("%.2fms", ms(lat.percentile(50))),
		fmt.Sprintf("%.2fms", ms(lat.percentile(90))),
		fmt.Sprintf("%.2fms", ms(lat.percentile(99))))
	return nil
}

// RunFig12 reproduces Figure 12: latency of the two analytical queries
// — state scan (a) and block scan (b) — for two key-population sizes.
func RunFig12(w io.Writer, scale Scale) error {
	const blockSize = 50
	blocks := scale.pick(200, 12000)
	keyCounts := []int{1 << 10, scale.pick(1<<12, 1<<16)}

	fmt.Fprintln(w, "Figure 12(a): state scan latency")
	ta := newTable(w, 10, 10, 16)
	ta.row("#Keys", "#Scanned", "ForkBase")
	fmt.Fprintln(w, "")

	chains := make([]*blockchain.Native, len(keyCounts))
	for ki, keys := range keyCounts {
		n := blockchain.NewNative(forkbase.Open(), "kv")
		y := workload.NewYCSB(workload.YCSBConfig{Seed: 8, Keys: keys, ReadRatio: 0, ValueSize: 100})
		for c := 0; c < blocks; c++ {
			for i := 0; i < blockSize; i++ {
				op := y.Next()
				n.BufferWrite(op.Key, op.Value)
			}
			if _, err := n.Commit(bgCtx, uint64(c)); err != nil {
				return err
			}
		}
		chains[ki] = n
	}

	for _, scanned := range []int{1, 10, 100, 1000} {
		names := make([]string, scanned)
		for i := range names {
			names[i] = workload.Key(i)
		}
		for ki, keys := range keyCounts {
			if scanned > keys {
				continue
			}
			t0 := time.Now()
			if _, err := chains[ki].ScanStates(bgCtx, names, 1<<30); err != nil {
				return err
			}
			ta.row(keys, scanned, fmt.Sprintf("%.2fms", ms(time.Since(t0))))
		}
	}

	fmt.Fprintln(w, "\nFigure 12(b): block scan latency")
	tb := newTable(w, 10, 10, 16)
	tb.row("#Keys", "Block", "ForkBase")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 0.99} {
		h := uint64(float64(blocks-1) * frac)
		for ki, keys := range keyCounts {
			t0 := time.Now()
			if _, err := chains[ki].BlockScan(bgCtx, h); err != nil {
				return err
			}
			tb.row(keys, h, fmt.Sprintf("%.2fms", ms(time.Since(t0))))
		}
	}
	return nil
}
