// Package tabular implements the collaborative-analytics application of
// paper §5.3: relational datasets stored on ForkBase in a row-oriented
// layout (records as Tuples in a Map keyed by primary key) or a
// column-oriented layout (column values as Lists referenced from a Map
// keyed by column name), plus an OrpheusDB-style baseline that
// materializes checkouts from record-version vectors.
package tabular

import (
	"context"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"forkbase"
	"forkbase/internal/postree"
	"forkbase/internal/types"
	"forkbase/internal/workload"
)

// Layout selects the physical layout of a ForkBase-backed table.
type Layout int

const (
	// RowLayout stores each record as a Tuple in a Map keyed by
	// primary key: efficient point updates.
	RowLayout Layout = iota
	// ColLayout stores each column as a List referenced from a Map
	// keyed by column name: efficient analytical scans (Figure 17b).
	ColLayout
)

func (l Layout) String() string {
	if l == ColLayout {
		return "ForkBase-COL"
	}
	return "ForkBase-ROW"
}

// Schema fixes the columns of the synthetic dataset of §6.4: a 12-byte
// primary key, two integer fields and two textual fields.
var Schema = schema[:]

var schema = [...]string{"pk", "int1", "int2", "text1", "text2"}

// numFields is len(Schema) as a constant: decodeRecord's array size.
const numFields = len(schema)

func decInt(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("tabular: integer field of %d bytes", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// recordSize is the size of r's Tuple encoding: the field count, then
// each field's length and bytes.
func recordSize(r workload.Record) int {
	return 4 + 4*numFields + len(r.PK) + 8 + 8 + len(r.Text1) + len(r.Text2)
}

// appendRecord appends r's Tuple encoding to dst, byte for byte what
// types.EncodeTuple makes of its five fields, straight from r's strings
// and integers.
func appendRecord(dst []byte, r workload.Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(numFields))
	for i := 0; i < numFields; i++ {
		at := len(dst)
		dst = appendField(append(dst, 0, 0, 0, 0), r, i)
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// appendField appends field i (in Schema order) of r to dst: the text
// of pk, text1 and text2, integers as 8 little-endian bytes. It is also
// the element a column List holds.
func appendField(dst []byte, r workload.Record, i int) []byte {
	switch i {
	case 0:
		return append(dst, r.PK...)
	case 1:
		return binary.LittleEndian.AppendUint64(dst, uint64(r.Int1))
	case 2:
		return binary.LittleEndian.AppendUint64(dst, uint64(r.Int2))
	case 3:
		return append(dst, r.Text1...)
	}
	return append(dst, r.Text2...)
}

// decodeRecord reads a record off its Tuple payload field by field;
// the only copies made are the three strings of the Record itself.
func decodeRecord(data []byte) (workload.Record, error) {
	t, err := types.ReadTuple(data)
	if err != nil {
		return workload.Record{}, err
	}
	if t.Len() != numFields {
		return workload.Record{}, fmt.Errorf("tabular: record has %d fields", t.Len())
	}
	var f [numFields][]byte // on the stack
	for i := range f {
		if f[i], err = t.Next(); err != nil {
			return workload.Record{}, err
		}
	}
	r := workload.Record{PK: string(f[0]), Text1: string(f[3]), Text2: string(f[4])}
	if r.Int1, err = decInt(f[1]); err != nil {
		return workload.Record{}, err
	}
	if r.Int2, err = decInt(f[2]); err != nil {
		return workload.Record{}, err
	}
	return r, nil
}

// FBTable is a versioned relational table on ForkBase. Branches scope
// independent lines of analysis (fork semantics, §5.3).
type FBTable struct {
	db     *forkbase.DB
	name   string
	layout Layout
	sums   [2]*postree.Memo // Aggregate's subtotals, for int1 and int2
}

// bgCtx is the root context behind the FBTable methods that take no
// ctx (every one but Fork): the harnesses that drive them are the
// outermost caller and have none to pass.
//
//forkvet:allow ctxflow — context-free application API driven by the benchmark harnesses
var bgCtx = context.Background()

// NewFBTable returns a table handle.
func NewFBTable(db *forkbase.DB, name string, layout Layout) *FBTable {
	t := &FBTable{db: db, name: name, layout: layout}
	for i := range t.sums {
		t.sums[i] = newColumnSum(layout, i+1)
	}
	return t
}

// newColumnSum returns the memo Aggregate sums a record's integer
// field through (1 for int1, 2 for int2): a column List's elements in
// the column layout, that field of each row's Tuple in the row layout.
func newColumnSum(layout Layout, field int) *postree.Memo {
	if layout == ColLayout {
		return postree.NewMemo(postree.KindList, func(e []byte) (int64, error) {
			return decInt(postree.SetElemBody(e))
		})
	}
	return postree.NewMemo(postree.KindMap, func(e []byte) (int64, error) {
		f, err := types.TupleField(postree.MapElemValue(e), field)
		if err != nil {
			return 0, err
		}
		return decInt(f)
	})
}

// Layout returns the physical layout.
func (t *FBTable) Layout() Layout { return t.layout }

func (t *FBTable) rowKey() string           { return "tbl/" + t.name + "/rows" }
func (t *FBTable) colKey(col string) string { return "tbl/" + t.name + "/col/" + col }

// Import loads records into the given branch, replacing prior contents.
// Records must be sorted by primary key for the column layout to align
// positions across columns.
func (t *FBTable) Import(branch string, records []workload.Record) error {
	switch t.layout {
	case RowLayout:
		// The Map copies each entry as it is set, so one scratch holds
		// every row's key and Tuple in turn.
		m := forkbase.NewMap()
		var kv []byte
		for _, r := range records {
			kv = appendRecord(append(kv[:0], r.PK...), r)
			if err := m.Set(kv[:len(r.PK)], kv[len(r.PK):]); err != nil {
				return err
			}
		}
		_, err := t.db.Put(bgCtx, t.rowKey(), m, forkbase.WithBranch(branch))
		return err
	case ColLayout:
		dir := forkbase.NewMap()
		var v []byte // the List copies each element it is given
		for i, col := range Schema {
			l := forkbase.NewList()
			for _, r := range records {
				v = appendField(v[:0], r, i)
				if err := l.Append(v); err != nil {
					return err
				}
			}
			uid, err := t.db.Put(bgCtx, t.colKey(col), l, forkbase.WithBranch(branch))
			if err != nil {
				return err
			}
			if err := dir.Set([]byte(col), uid[:]); err != nil {
				return err
			}
		}
		_, err := t.db.Put(bgCtx, t.rowKey(), dir, forkbase.WithBranch(branch))
		return err
	}
	return fmt.Errorf("tabular: bad layout")
}

// Fork creates a new branch of the dataset (the checkout of §6.4): in
// ForkBase this is a constant-time branch-table operation, no data is
// copied.
func (t *FBTable) Fork(ctx context.Context, refBranch, newBranch string) error {
	if err := t.db.Fork(ctx, t.rowKey(), newBranch, forkbase.WithBranch(refBranch)); err != nil {
		return err
	}
	if t.layout == ColLayout {
		for _, col := range Schema {
			if err := t.db.Fork(ctx, t.colKey(col), newBranch, forkbase.WithBranch(refBranch)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Count returns the number of records on branch.
func (t *FBTable) Count(branch string) (uint64, error) {
	m, err := t.rows(branch)
	if err != nil {
		return 0, err
	}
	if t.layout == RowLayout {
		return m.Len(), nil
	}
	l, err := t.column(branch, "pk")
	if err != nil {
		return 0, err
	}
	return l.Len(), nil
}

// Get returns the record with the given primary key (row layout only).
func (t *FBTable) Get(branch, pk string) (workload.Record, bool, error) {
	if t.layout != RowLayout {
		return workload.Record{}, false, errors.New("tabular: Get requires the row layout")
	}
	m, err := t.rows(branch)
	if err != nil {
		return workload.Record{}, false, err
	}
	raw, ok, err := m.Get([]byte(pk))
	if err != nil || !ok {
		return workload.Record{}, false, err
	}
	r, err := decodeRecord(raw)
	return r, err == nil, err
}

// rows fetches the row layout's Map (the column layout's directory) on
// branch.
func (t *FBTable) rows(branch string) (*forkbase.Map, error) {
	o, err := t.db.Get(bgCtx, t.rowKey(), forkbase.WithBranch(branch))
	if err != nil {
		return nil, err
	}
	return t.db.MapOf(o)
}

// column fetches one column's List on branch.
func (t *FBTable) column(branch, col string) (*forkbase.List, error) {
	o, err := t.db.Get(bgCtx, t.colKey(col), forkbase.WithBranch(branch))
	if err != nil {
		return nil, err
	}
	return t.db.ListOf(o)
}

// Update applies record modifications to branch. For the row layout the
// Map absorbs a batch of Tuple rewrites; for the column layout each
// touched column's List is spliced at the record positions.
//
// The positions slice gives each record's ordinal for the column layout
// (its index in the sorted primary-key order used at import).
func (t *FBTable) Update(branch string, records []workload.Record, positions []uint64) error {
	switch t.layout {
	case RowLayout:
		m, err := t.rows(branch)
		if err != nil {
			return err
		}
		// One buffer holds every key and Tuple of the call; each KV is
		// a capped slice of it.
		size := 0
		for _, r := range records {
			size += len(r.PK) + recordSize(r)
		}
		buf := make([]byte, 0, size)
		sets := make([]postree.KV, len(records))
		for i, r := range records {
			k := len(buf)
			v := k + len(r.PK)
			buf = appendRecord(append(buf, r.PK...), r)
			sets[i] = postree.KV{Key: buf[k:v:v], Value: buf[v:len(buf):len(buf)]}
		}
		if err := m.Apply(sets, nil); err != nil {
			return err
		}
		_, err = t.db.Put(bgCtx, t.rowKey(), m, forkbase.WithBranch(branch))
		return err
	case ColLayout:
		if len(positions) != len(records) {
			return errors.New("tabular: column update needs positions")
		}
		dir := forkbase.NewMap()
		var v []byte // a splice copies the element it is given
		for f, col := range Schema {
			l, err := t.column(branch, col)
			if err != nil {
				return err
			}
			for i, r := range records {
				v = appendField(v[:0], r, f)
				if err := l.Splice(positions[i], 1, v); err != nil {
					return err
				}
			}
			uid, err := t.db.Put(bgCtx, t.colKey(col), l, forkbase.WithBranch(branch))
			if err != nil {
				return err
			}
			if err := dir.Set([]byte(col), uid[:]); err != nil {
				return err
			}
		}
		_, err := t.db.Put(bgCtx, t.rowKey(), dir, forkbase.WithBranch(branch))
		return err
	}
	return fmt.Errorf("tabular: bad layout")
}

// Scan calls fn for every record on branch in primary-key order.
func (t *FBTable) Scan(branch string, fn func(workload.Record) bool) error {
	switch t.layout {
	case RowLayout:
		m, err := t.rows(branch)
		if err != nil {
			return err
		}
		var decodeErr error
		err = m.Iter(func(k, v []byte) bool {
			r, err := decodeRecord(v)
			if err != nil {
				decodeErr = err
				return false
			}
			return fn(r)
		})
		if decodeErr != nil {
			return decodeErr
		}
		return err
	case ColLayout:
		cols := make(map[string][][]byte, len(Schema))
		var n uint64
		for _, col := range Schema {
			l, err := t.column(branch, col)
			if err != nil {
				return err
			}
			var vals [][]byte
			if err := l.Iter(func(_ uint64, e []byte) bool {
				vals = append(vals, e)
				return true
			}); err != nil {
				return err
			}
			cols[col] = vals
			n = uint64(len(vals))
		}
		for i := uint64(0); i < n; i++ {
			r := workload.Record{
				PK:    string(cols["pk"][i]),
				Text1: string(cols["text1"][i]),
				Text2: string(cols["text2"][i]),
			}
			var err error
			if r.Int1, err = decInt(cols["int1"][i]); err != nil {
				return err
			}
			if r.Int2, err = decInt(cols["int2"][i]); err != nil {
				return err
			}
			if !fn(r) {
				return nil
			}
		}
		return nil
	}
	return fmt.Errorf("tabular: bad layout")
}

// Aggregate sums an integer column ("int1" or "int2") on branch. The
// column layout reads only that column's chunks; the row layout walks
// every record (the Figure 17b gap) but reads the one field it sums in
// place, out of the leaf bytes. The handle
// remembers the subtotal of every subtree it summed, per column and by
// cid (postree.Memo), so a branch that shares most of its tree with
// versions this handle already summed reads only the nodes it does not
// share; the first sum on a fresh handle is the full pass of Figure 17b.
func (t *FBTable) Aggregate(branch, col string) (int64, error) {
	var sums *postree.Memo
	switch col {
	case "int1":
		sums = t.sums[0]
	case "int2":
		sums = t.sums[1]
	default:
		return 0, fmt.Errorf("tabular: cannot aggregate column %q", col)
	}
	if t.layout == ColLayout {
		l, err := t.column(branch, col)
		if err != nil {
			return 0, err
		}
		return sums.Fold(l.Tree())
	}
	m, err := t.rows(branch)
	if err != nil {
		return 0, err
	}
	return sums.Fold(m.Tree())
}

// DiffCount compares two branches and returns the number of added,
// removed and modified records, using the POS-Tree diff so that shared
// subtrees are skipped (Figure 17a). It counts as the diff streams
// (postree.EachDiff), so it reads only the nodes on the changed paths
// and builds no list of records. Row layout only.
func (t *FBTable) DiffCount(branchA, branchB string) (added, removed, modified int, err error) {
	if t.layout != RowLayout {
		return 0, 0, 0, errors.New("tabular: DiffCount requires the row layout")
	}
	a, err := t.rows(branchA)
	if err != nil {
		return 0, 0, 0, err
	}
	b, err := t.rows(branchB)
	if err != nil {
		return 0, 0, 0, err
	}
	err = postree.EachDiff(bgCtx, a.Tree(), b.Tree(), func(op postree.DiffOp, _ postree.KV) error {
		switch op {
		case postree.DiffAdded:
			added++
		case postree.DiffRemoved:
			removed++
		default:
			modified++
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return added, removed, modified, nil
}

// ImportCSV loads a CSV stream with the fixed schema (pk, int1, int2,
// text1, text2) into branch.
func (t *FBTable) ImportCSV(branch string, r io.Reader) (int, error) {
	cr := csv.NewReader(r)
	var records []workload.Record
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("tabular: %w", err)
		}
		if len(row) != len(Schema) {
			return 0, fmt.Errorf("tabular: row has %d fields, want %d", len(row), len(Schema))
		}
		i1, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("tabular: %w", err)
		}
		i2, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("tabular: %w", err)
		}
		records = append(records, workload.Record{PK: row[0], Int1: i1, Int2: i2, Text1: row[3], Text2: row[4]})
	}
	if err := t.Import(branch, records); err != nil {
		return 0, err
	}
	return len(records), nil
}

// ExportCSV writes branch's records as CSV in primary-key order.
func (t *FBTable) ExportCSV(branch string, w io.Writer) error {
	cw := csv.NewWriter(w)
	var scanErr error
	err := t.Scan(branch, func(r workload.Record) bool {
		scanErr = cw.Write([]string{
			r.PK,
			strconv.FormatInt(r.Int1, 10),
			strconv.FormatInt(r.Int2, 10),
			r.Text1, r.Text2,
		})
		return scanErr == nil
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	cw.Flush()
	return cw.Error()
}

// StorageBytes reports the backing store's consumption.
func (t *FBTable) StorageBytes() int64 { return t.db.Stats().Bytes }
