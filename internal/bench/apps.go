package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"forkbase"
	"forkbase/internal/tabular"
	"forkbase/internal/wiki"
	"forkbase/internal/workload"
)

// wire models the 1 GbE client-server link of the paper's testbed:
// roughly 1 µs per KiB plus per-request overhead folded into the
// workload loop. Both wiki engines pay it per byte actually shipped,
// which is what separates them.
var wire = wiki.FetchModel{PerKB: 8 * time.Microsecond}

// RunFig13 reproduces Figure 13: wiki page-edit throughput (a) and
// storage consumption (b) for ForkBase vs Redis at in-place-update
// ratios 100U/90U/80U.
func RunFig13(w io.Writer, scale Scale) error {
	pages := scale.pick(320, 3200)
	requests := scale.pick(2_000, 120_000)
	pageSize := 15 << 10

	fmt.Fprintln(w, "Figure 13: wiki page editing (throughput and storage)")
	t := newTable(w, 12, 10, 14, 16)
	t.row("Engine", "xU", "Edits/s", "Storage")

	for _, inPlace := range []float64{1.0, 0.9, 0.8} {
		engines := []wiki.Engine{
			wiki.NewForkBase(forkbase.Open(), wire),
			wiki.NewRedis(wire),
		}
		for _, e := range engines {
			c := wiki.NewClient()
			rng := rand.New(rand.NewSource(11))
			for p := 0; p < pages; p++ {
				if err := e.Save(bgCtx, c, fmt.Sprintf("page-%05d", p), workload.RandText(rng, pageSize)); err != nil {
					return err
				}
			}
			trace := workload.NewWikiTrace(12, pages, 200, inPlace, 0)
			t0 := time.Now()
			for i := 0; i < requests; i++ {
				if err := e.Edit(bgCtx, c, trace.Next(pageSize)); err != nil {
					return err
				}
			}
			t.row(e.Name(), fmt.Sprintf("%d", int(inPlace*100)),
				opsPerSec(requests, time.Since(t0)), mib(e.StorageBytes()))
		}
	}
	return nil
}

// RunFig14 reproduces Figure 14: throughput of reading consecutive
// versions of a page. Redis is fastest for the latest version; as a
// client tracks more versions, ForkBase overtakes it because most
// chunks are already cached client-side.
func RunFig14(w io.Writer, scale Scale) error {
	pages := scale.pick(64, 512)
	versions := 6
	reads := scale.pick(300, 3000)
	pageSize := 48 << 10

	fmt.Fprintln(w, "Figure 14: reading consecutive versions of a wiki page (reads/sec)")
	t := newTable(w, 12, 10, 14)
	t.row("Engine", "#Versions", "Reads/s")

	// A heavier wire model than fig13's: the effect under study is
	// transfer volume (full page per version vs uncached chunks only),
	// and the simulated delay must dominate timer/sleep granularity
	// for the volume difference to be visible.
	slowWire := wiki.FetchModel{PerKB: 64 * time.Microsecond}
	engines := []wiki.Engine{
		wiki.NewForkBase(forkbase.Open(), slowWire),
		wiki.NewRedis(slowWire),
	}
	for _, e := range engines {
		seedClient := wiki.NewClient()
		rng := rand.New(rand.NewSource(13))
		trace := workload.NewWikiTrace(14, pages, 150, 1.0, 0)
		for p := 0; p < pages; p++ {
			if err := e.Save(bgCtx, seedClient, fmt.Sprintf("page-%05d", p), workload.RandText(rng, pageSize)); err != nil {
				return err
			}
		}
		for v := 1; v < versions; v++ {
			for p := 0; p < pages; p++ {
				edit := trace.Next(pageSize)
				edit.Page = fmt.Sprintf("page-%05d", p)
				if err := e.Edit(bgCtx, seedClient, edit); err != nil {
					return err
				}
			}
		}
		for track := 1; track <= versions; track++ {
			// Each exploration: a fresh client reads versions
			// latest..latest-track+1 of a random page.
			rng := rand.New(rand.NewSource(15))
			t0 := time.Now()
			total := 0
			for i := 0; i < reads/track; i++ {
				c := wiki.NewClient()
				p := fmt.Sprintf("page-%05d", rng.Intn(pages))
				for back := 0; back < track; back++ {
					if _, err := e.LoadVersion(bgCtx, c, p, back); err != nil {
						return err
					}
					total++
				}
			}
			t.row(e.Name(), track, opsPerSec(total, time.Since(t0)))
		}
	}
	return nil
}

// RunFig16 reproduces Figure 16: latency (a) and space increment (b) of
// dataset modifications at 1-5% update fractions, ForkBase vs the
// OrpheusDB-style baseline.
func RunFig16(w io.Writer, scale Scale) error {
	records := workload.Dataset(20, scale.pick(50_000, 5_000_000))
	fmt.Fprintln(w, "Figure 16: dataset modification latency and space increment")
	t := newTable(w, 10, 14, 14, 14)
	t.row("Update%", "System", "Latency", "SpaceGrow")

	for _, pct := range []int{1, 2, 3, 4, 5} {
		n := len(records) * pct / 100
		// ForkBase row layout.
		{
			db := forkbase.Open()
			tbl := tabular.NewFBTable(db, "t", tabular.RowLayout)
			if err := tbl.Import("master", records); err != nil {
				return err
			}
			before := tbl.StorageBytes()
			mods := make([]workload.Record, n)
			copy(mods, records[:n])
			for i := range mods {
				mods[i].Int1++
			}
			t0 := time.Now()
			if err := tbl.Update("master", mods, nil); err != nil {
				return err
			}
			lat := time.Since(t0)
			t.row(pct, "ForkBase", fmt.Sprintf("%.1fms", ms(lat)), mib(tbl.StorageBytes()-before))
			db.Close()
		}
		// OrpheusDB-style: checkout, modify, commit.
		{
			o := tabular.NewOrpheus()
			o.Import("v1", records)
			before := o.StorageBytes()
			t0 := time.Now()
			work, err := o.Checkout("v1")
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				work[i].Int1++
			}
			if err := o.Commit("v1", "v2", work); err != nil {
				return err
			}
			lat := time.Since(t0)
			t.row(pct, "OrpheusDB", fmt.Sprintf("%.1fms", ms(lat)), mib(o.StorageBytes()-before))
		}
	}
	return nil
}

// RunFig17 reproduces Figure 17: version-diff latency as the fraction
// of differing records grows (a), and aggregation-query latency for
// row/column ForkBase layouts vs OrpheusDB (b).
func RunFig17(w io.Writer, scale Scale) error {
	base := workload.Dataset(21, scale.pick(50_000, 5_000_000))

	fmt.Fprintln(w, "Figure 17(a): version diff latency")
	ta := newTable(w, 10, 14, 14)
	ta.row("Diff%", "ForkBase", "OrpheusDB")
	for _, pct := range []int{0, 1, 2, 4, 8} {
		n := len(base) * pct / 100
		// ForkBase: two branches differing in n records.
		db := forkbase.Open()
		tbl := tabular.NewFBTable(db, "t", tabular.RowLayout)
		if err := tbl.Import("master", base); err != nil {
			return err
		}
		if err := tbl.Fork(bgCtx, "master", "edited"); err != nil {
			return err
		}
		if n > 0 {
			mods := make([]workload.Record, n)
			copy(mods, base[:n])
			for i := range mods {
				mods[i].Text1 = "edited"
			}
			if err := tbl.Update("edited", mods, nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		_, _, modified, err := tbl.DiffCount("master", "edited")
		if err != nil {
			return err
		}
		if modified != n {
			return fmt.Errorf("bench: diff found %d, want %d", modified, n)
		}
		fbLat := time.Since(t0)
		db.Close()

		o := tabular.NewOrpheus()
		o.Import("v1", base)
		work, _ := o.Checkout("v1")
		for i := 0; i < n; i++ {
			work[i].Text1 = "edited"
		}
		o.Commit("v1", "v2", work)
		t0 = time.Now()
		if _, err := o.Diff("v1", "v2"); err != nil {
			return err
		}
		orLat := time.Since(t0)
		ta.row(pct, fmt.Sprintf("%.1fms", ms(fbLat)), fmt.Sprintf("%.1fms", ms(orLat)))
	}

	fmt.Fprintln(w, "\nFigure 17(b): aggregation query latency")
	tb := newTable(w, 12, 16, 16, 16)
	tb.row("#Records", "ForkBase-COL", "ForkBase-ROW", "OrpheusDB")
	for _, n := range []int{len(base) / 4, len(base) / 2, len(base)} {
		sub := base[:n]
		var lats [3]string
		for li, layout := range []tabular.Layout{tabular.ColLayout, tabular.RowLayout} {
			db := forkbase.Open()
			tbl := tabular.NewFBTable(db, "t", layout)
			if err := tbl.Import("master", sub); err != nil {
				return err
			}
			// A new handle summing once has nothing memoized: the paper's full scan.
			t0 := time.Now()
			if _, err := tbl.Aggregate("master", "int1"); err != nil {
				return err
			}
			lats[li] = fmt.Sprintf("%.1fms", ms(time.Since(t0)))
			db.Close()
		}
		o := tabular.NewOrpheus()
		o.Import("v1", sub)
		t0 := time.Now()
		if _, err := o.Aggregate("v1", "int1"); err != nil {
			return err
		}
		lats[2] = fmt.Sprintf("%.1fms", ms(time.Since(t0)))
		tb.row(n, lats[0], lats[1], lats[2])
	}
	return nil
}
