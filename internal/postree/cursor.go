package postree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"forkbase/internal/chunk"
	"forkbase/internal/store"
)

// CorruptNodeError reports an index-node payload that does not parse,
// or whose counts disagree with what its parent (or the tree's meta
// chunk) claims. It wraps store.ErrCorrupt.
type CorruptNodeError struct {
	Off    int // payload offset of the offending entry
	Reason string
}

func (e *CorruptNodeError) Error() string {
	return fmt.Sprintf("postree: corrupt index node at offset %d: %s", e.Off, e.Reason)
}

// Unwrap makes errors.Is(err, store.ErrCorrupt) hold.
func (e *CorruptNodeError) Unwrap() error { return store.ErrCorrupt }

// indexCursor reads an index-node payload in place: entries come out
// one at a time, by offset, with their keys aliasing the payload, so a
// reader pays for the entries it passes and allocates nothing. It is a
// value; copying one forks the position.
type indexCursor struct {
	p   []byte
	off int
}

// done reports whether every entry has been read.
func (c *indexCursor) done() bool { return c.off >= len(c.p) }

// next returns the entry at the cursor and steps past it; ok is false
// at the end of the node.
func (c *indexCursor) next() (e entry, ok bool, err error) {
	p := c.p[c.off:]
	if len(p) == 0 {
		return entry{}, false, nil
	}
	if len(p) < 4 {
		return entry{}, false, &CorruptNodeError{c.off, "truncated entry"}
	}
	kl := int(binary.LittleEndian.Uint32(p))
	if len(p)-4 < kl+8+chunk.IDSize {
		return entry{}, false, &CorruptNodeError{c.off, "truncated entry"}
	}
	if kl > 0 {
		e.key = p[4 : 4+kl : 4+kl]
	}
	e.count = binary.LittleEndian.Uint64(p[4+kl:])
	copy(e.id[:], p[12+kl:])
	c.off += 12 + kl + chunk.IDSize
	return e, true, nil
}

// seekKey returns the first entry at or after the cursor whose split
// key is >= key: the subtree a sorted lookup descends into. ok is
// false when every remaining key is smaller.
func (c *indexCursor) seekKey(key []byte) (e entry, ok bool, err error) {
	for {
		if e, ok, err = c.next(); !ok || bytes.Compare(e.key, key) >= 0 {
			return e, ok, err
		}
	}
}

// seekPos returns the entry holding position i, counted in elements
// from the cursor, and the number of elements in the entries before
// it. A node whose counts sum to i or less is corrupt: whoever sent
// the reader here promised more.
func (c *indexCursor) seekPos(i uint64) (e entry, before uint64, err error) {
	for {
		var ok bool
		if e, ok, err = c.next(); err != nil {
			return entry{}, 0, err
		}
		if !ok {
			return entry{}, 0, &CorruptNodeError{c.off, fmt.Sprintf("counts sum to %d, position %d wanted", before, before+i)}
		}
		if i < e.count {
			return e, before, nil
		}
		i -= e.count
		before += e.count
	}
}

// IndexChildIDs returns the child cids referenced by an index-node
// payload (TypeUIndex or TypeSIndex): a counting pass, then one
// allocation of exactly that size. The garbage collector's marker,
// chunk sync and the server's deep Want call it once per index node.
func IndexChildIDs(payload []byte) ([]chunk.ID, error) {
	n := 0
	for c := (indexCursor{p: payload}); ; n++ {
		if _, ok, err := c.next(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	return appendChildIDs(make([]chunk.ID, 0, n), payload)
}

// appendChildIDs appends the child cids of an index-node payload.
func appendChildIDs(dst []chunk.ID, payload []byte) ([]chunk.ID, error) {
	c := indexCursor{p: payload}
	return c.appendRest(dst)
}

// appendRest appends the child cids of the entries the cursor has yet
// to yield, stepping past them.
func (c *indexCursor) appendRest(dst []chunk.ID) ([]chunk.ID, error) {
	for {
		e, ok, err := c.next()
		if err != nil || !ok {
			return dst, err
		}
		dst = append(dst, e.id)
	}
}
