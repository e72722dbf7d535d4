// Package store is where a chunk may be rebuilt under an id taken on
// trust: the store indexed the record itself.
package store

import "chunkalias/chunk"

func okStoreRead(read func([]byte), id chunk.ID) *chunk.Chunk {
	rec := make([]byte, 64)
	read(rec)
	c, _ := chunk.DecodeStored(rec, id)
	return c
}

func badStoreReuse(read func([]byte), id chunk.ID) *chunk.Chunk {
	rec := make([]byte, 64)
	read(rec)
	c, _ := chunk.DecodeStored(rec, id)
	rec[0] = 0 // want `element write "rec" after chunk\.New took ownership`
	return c
}
