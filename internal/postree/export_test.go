package postree

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/rollsum"
	"forkbase/internal/store"
)

// rolledDuring runs f and returns the bytes its edits pushed through
// the rolling hash (windows hashed again after a copied run
// included), as opposed to copied.
func rolledDuring(f func()) int {
	total := 0
	onRolled = func(n int) { total += n }
	defer func() { onRolled = nil }()
	f()
	return total
}

// decodeEntries materialises an index-node payload. It is the oracle
// the cursor is tested against, and nothing outside the tests may
// decode a node this way.
func decodeEntries(payload []byte) ([]entry, error) {
	var out []entry
	for len(payload) > 0 {
		if len(payload) < 4 {
			return nil, fmt.Errorf("postree: truncated index entry")
		}
		kl := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if len(payload) < kl+8+chunk.IDSize {
			return nil, fmt.Errorf("postree: truncated index entry")
		}
		var e entry
		if kl > 0 {
			e.key = payload[:kl:kl]
		}
		payload = payload[kl:]
		e.count = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		copy(e.id[:], payload[:chunk.IDSize])
		payload = payload[chunk.IDSize:]
		out = append(out, e)
	}
	return out, nil
}

// leafEntries collects the index entries of the leaf level (reading
// only index chunks, not leaves) together with a synthesized entry for
// a single-leaf tree: the leaf list the reference diff and the edit
// tests aim at.
func (t *Tree) leafEntries() ([]entry, error) {
	if t.root.IsNil() {
		return nil, nil
	}
	if t.height == 1 {
		e := entry{count: t.count, id: t.root}
		if t.kind.Sorted() {
			c, err := t.getChunk(t.root)
			if err != nil {
				return nil, err
			}
			if e.key, err = lastElemKey(t.kind, c.Data()); err != nil {
				return nil, err
			}
		}
		return []entry{e}, nil
	}
	var out []entry
	var walk func(id chunk.ID, lvl int) error
	walk = func(id chunk.ID, lvl int) error {
		c, err := t.getChunk(id)
		if err != nil {
			return err
		}
		entries, err := decodeEntries(c.Data())
		if err != nil {
			return err
		}
		if lvl == 2 {
			out = append(out, entries...)
			return nil
		}
		for _, e := range entries {
			if err := walk(e.id, lvl-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, t.height); err != nil {
		return nil, err
	}
	return out, nil
}

// leafElems decodes the encoded elements of one leaf chunk.
func (t *Tree) leafElems(id chunk.ID) ([][]byte, error) {
	c, err := t.getChunk(id)
	if err != nil {
		return nil, err
	}
	payload := c.Data()
	var out [][]byte
	for len(payload) > 0 {
		enc, adv, err := elementAt(t.kind, payload)
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
		payload = payload[adv:]
	}
	return out, nil
}

// diffSortedByLeafSet is DiffSorted as it was before the pruned
// descent: both leaf lists in full, the leaves in one and not the
// other decoded and merged. It is the definition the descent must
// reproduce.
func diffSortedByLeafSet(ctx context.Context, a, b *Tree) (*SortedDiff, error) {
	la, err := a.leafEntries()
	if err != nil {
		return nil, err
	}
	lb, err := b.leafEntries()
	if err != nil {
		return nil, err
	}
	inA := make(map[chunk.ID]bool, len(la))
	for _, e := range la {
		inA[e.id] = true
	}
	inB := make(map[chunk.ID]bool, len(lb))
	for _, e := range lb {
		inB[e.id] = true
	}
	var ea, eb [][]byte
	shared := 0
	for _, e := range la {
		if inB[e.id] {
			shared++
			continue
		}
		elems, err := a.leafElems(e.id)
		if err != nil {
			return nil, err
		}
		ea = append(ea, elems...)
	}
	for _, e := range lb {
		if inA[e.id] {
			continue
		}
		elems, err := b.leafElems(e.id)
		if err != nil {
			return nil, err
		}
		eb = append(eb, elems...)
	}
	d := &SortedDiff{SharedLeaves: shared, TotalLeaves: len(la) + len(lb) - shared}
	i, j := 0, 0
	for i < len(ea) && j < len(eb) {
		ka, kb := elemKey(a.kind, ea[i]), elemKey(b.kind, eb[j])
		switch bytes.Compare(ka, kb) {
		case -1:
			d.Removed = append(d.Removed, kvOf(a.kind, ea[i]))
			i++
		case 1:
			d.Added = append(d.Added, kvOf(b.kind, eb[j]))
			j++
		default:
			if a.kind == KindMap && !bytes.Equal(MapElemValue(ea[i]), MapElemValue(eb[j])) {
				d.Modified = append(d.Modified, kvOf(b.kind, eb[j]))
			}
			i++
			j++
		}
	}
	for ; i < len(ea); i++ {
		d.Removed = append(d.Removed, kvOf(a.kind, ea[i]))
	}
	for ; j < len(eb); j++ {
		d.Added = append(d.Added, kvOf(b.kind, eb[j]))
	}
	return d, nil
}

// buildIndexBatch assembles the index levels over a finished leaf list
// one whole level at a time, as the Builder did before the levels were
// made streaming. It is the reference indexLevels is held to: the
// exactness suites compare an edit with a Builder run, and both now go
// through indexLevels, so neither can vouch for it.
func buildIndexBatch(s store.Store, cfg Config, kind Kind, leaves []entry) (root chunk.ID, height int, err error) {
	pattern := rollsum.NewIndexPattern(cfg.IndexR)
	level := leaves
	for height = 1; len(level) > 1; height++ {
		var next []entry
		var payload []byte
		n, count := 0, uint64(0)
		for i, ch := range level {
			payload = appendEntry(payload, ch)
			n++
			count += ch.count
			if pattern.Match(ch.id) || n >= cfg.maxIndex() || i == len(level)-1 {
				c := chunk.New(kind.indexType(), payload)
				if _, err := s.Put(c); err != nil {
					return chunk.ID{}, 0, err
				}
				next = append(next, entry{key: ch.key, count: count, id: c.ID()})
				payload, n, count = nil, 0, 0
			}
		}
		level = next
	}
	if len(level) == 0 {
		return chunk.ID{}, 0, nil
	}
	return level[0].id, height, nil
}

// entries returns the number of subtotals the memo holds.
func (m *Memo) entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
