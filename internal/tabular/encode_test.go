package tabular

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"forkbase"
	"forkbase/internal/types"
	"forkbase/internal/workload"
)

// encInt is the 8-byte little-endian field an integer is stored as.
func encInt(v int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(v))
}

// TestAppendRecordIsEncodeTuple holds the row encoder to the Tuple
// codec: for random records — empty, long and multi-byte texts,
// negative and extreme integers — appendRecord writes exactly what
// types.EncodeTuple makes of the five fields, recordSize counts it, and
// appendField writes each field as it stands in the Tuple.
func TestAppendRecordIsEncodeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 32, -1 << 40}
	text := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("é\x00,\"", rng.Intn(2000))
		}
		return string(workload.RandText(rng, rng.Intn(120)))
	}
	num := func() int64 {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return int64(rng.Uint64())
	}
	var dst []byte
	for i := 0; i < 2000; i++ {
		r := workload.Record{PK: text(), Int1: num(), Int2: num(), Text1: text(), Text2: text()}
		fields := types.Tuple{[]byte(r.PK), encInt(r.Int1), encInt(r.Int2), []byte(r.Text1), []byte(r.Text2)}
		want := types.EncodeTuple(fields)
		prefix := []byte("prefix")
		dst = appendRecord(append(dst[:0], prefix...), r)
		if !bytes.Equal(dst[:len(prefix)], prefix) || !bytes.Equal(dst[len(prefix):], want) {
			t.Fatalf("record %+v: appendRecord wrote %x, EncodeTuple %x", r, dst[len(prefix):], want)
		}
		if recordSize(r) != len(want) {
			t.Fatalf("record %+v: recordSize %d, encoding is %d bytes", r, recordSize(r), len(want))
		}
		for f := range fields {
			if got := appendField(nil, r, f); !bytes.Equal(got, fields[f]) {
				t.Fatalf("record %+v: field %d is %x, want %x", r, f, got, fields[f])
			}
		}
		if back, err := decodeRecord(want); err != nil || back != r {
			t.Fatalf("decodeRecord(EncodeTuple(%+v)) = %+v, %v", r, back, err)
		}
	}
}

// TestUpdateAllocatesPerLeafNotPerRow: a row-layout Update encodes every
// row of the call into one buffer and the tree writer encodes what it
// inserts into its own scratch, so rewriting a 1 000-row slice of the
// 100 000-row table allocates per leaf touched, not per row.
func TestUpdateAllocatesPerLeafNotPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("imports 100 000 rows")
	}
	const perRow = 0.3
	tbl, rows, _ := benchTable(t, forkbase.Open())
	const runs = 5
	var slices [runs + 1][]workload.Record
	for i := range slices {
		slices[i] = rewriteSlice(rows, 10_000*(i+1), int64(i+2))
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tbl.Update("edit", slices[i], nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got := allocs / benchSlice; got > perRow {
		t.Fatalf("Update of %d rows: %.2f allocations per row, want at most %v", benchSlice, got, perRow)
	}
	t.Logf("Update of %d rows: %.2f allocations per row", benchSlice, allocs/benchSlice)
}

// TestImportAllocatesPerLeafNotPerRow: a row-layout Import encodes each
// row into one reused scratch that the Map copies into its ordered run.
func TestImportAllocatesPerLeafNotPerRow(t *testing.T) {
	const n, perRow = 25_000, 0.2
	rows := workload.Dataset(42, n)
	tbl := NewFBTable(forkbase.Open(), "imp", RowLayout)
	allocs := testing.AllocsPerRun(3, func() {
		if err := tbl.Import("master", rows); err != nil {
			t.Fatal(err)
		}
	})
	if got := allocs / n; got > perRow {
		t.Fatalf("Import of %d rows: %.2f allocations per row, want at most %v", n, got, perRow)
	}
	t.Logf("Import of %d rows: %.2f allocations per row", n, allocs/n)
}

// goldenEdits returns 100 rewrites of rows spread over a 2 000-row
// table, with their positions: integers moved, negated or pushed to the
// extremes, texts emptied or grown past a leaf's worth of bytes.
func goldenEdits(rows []workload.Record) ([]workload.Record, []uint64) {
	var edits []workload.Record
	var pos []uint64
	for i := 7; i < len(rows); i += 20 {
		r := rows[i]
		switch len(edits) % 5 {
		case 0:
			r.Int1 = -r.Int1
		case 1:
			r.Int2 = -1 << 63
			r.Text1 = ""
		case 2:
			r.Int1 = 1<<63 - 1
			r.Text2 = strings.Repeat(r.Text2, 60)
		case 3:
			r.Text1, r.Text2 = "", ""
		default:
			r.Int1++
			r.Text1 += "!"
		}
		edits = append(edits, r)
		pos = append(pos, uint64(i))
	}
	return edits, pos
}

// TestTableGoldenUIDs pins the version uids of a seeded 2 000-row
// Import and a 100-row Update on it, in both layouts. A uid commits to
// every chunk of the table's Map (and, for the column layout, of each
// column's List), so a changed uid means a record's bytes on disk
// changed. The literals are never re-pinned to make a change pass.
func TestTableGoldenUIDs(t *testing.T) {
	want := map[Layout][2]string{
		RowLayout: {
			"aef22c54a4c1eaf9bae9ca5d1760a8068a62be04f5e65bc2533652c721f053dd",
			"408f19a59fb9e064161e1c642c349ac289f6ec0531809a999afb16380b99c08f",
		},
		ColLayout: {
			"1036a809591a6c8b25af4039d7f6a2b4086eea43a51b7a1711e560f341861445",
			"35c05c39d9de2299dc6b79747eed3a0b35a70345422708ef37e91b52f4b28f86",
		},
	}
	rows := workload.Dataset(7, 2000)
	edits, pos := goldenEdits(rows)
	if len(edits) != 100 {
		t.Fatalf("built %d edits, want 100", len(edits))
	}
	for _, layout := range []Layout{RowLayout, ColLayout} {
		db := forkbase.Open()
		tbl := NewFBTable(db, "golden", layout)
		head := func() string {
			o, err := db.Get(bgCtx, tbl.rowKey())
			if err != nil {
				t.Fatal(err)
			}
			return o.UID().String()
		}
		if err := tbl.Import("master", rows); err != nil {
			t.Fatal(err)
		}
		imported := head()
		if err := tbl.Update("master", edits, pos); err != nil {
			t.Fatal(err)
		}
		updated := head()
		if got := [2]string{imported, updated}; got != want[layout] {
			t.Errorf("%v: uids after Import, Update = %q; pinned %q", layout, got, want[layout])
		}
	}
}
