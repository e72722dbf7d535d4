package use

import "chunkalias/chunk"

func badElementWrite() *chunk.Chunk {
	buf := make([]byte, 8)
	c := chunk.New(1, buf)
	buf[0] = 0xff // want `element write "buf" after chunk\.New took ownership`
	return c
}

func badCopyInto(other []byte) *chunk.Chunk {
	buf := make([]byte, 8)
	c := chunk.New(1, buf)
	copy(buf, other) // want `copy into "buf" after chunk\.New took ownership`
	return c
}

func badAppendInto() *chunk.Chunk {
	buf := make([]byte, 0, 64)
	buf = append(buf, 1, 2, 3)
	c := chunk.New(1, buf)
	buf = append(buf, 4) // want `append into "buf" after chunk\.New took ownership`
	return c
}

func badResliceReuse() []*chunk.Chunk {
	buf := make([]byte, 0, 64)
	var out []*chunk.Chunk
	for i := 0; i < 4; i++ {
		buf = append(buf, byte(i))
		out = append(out, chunk.New(1, buf))
		buf = buf[:0]        // still aliases the chunk's bytes
		buf = append(buf, 9) // want `append into "buf" after chunk\.New took ownership`
	}
	return out
}

func badReuseAfterDecodeStored(read func([]byte), id chunk.ID) *chunk.Chunk {
	rec := make([]byte, 64)
	read(rec)
	c, _ := chunk.DecodeStored(rec, id) // want `chunk\.DecodeStored outside package store`
	copy(rec, "next record")            // want `copy into "rec" after chunk\.New took ownership`
	return c
}

// okFreshCopy is the POS-tree builder pattern: hand over a copy, keep
// recycling the scratch buffer.
func okFreshCopy(scratch []byte) []*chunk.Chunk {
	var out []*chunk.Chunk
	for i := 0; i < 4; i++ {
		payload := make([]byte, len(scratch))
		copy(payload, scratch)
		out = append(out, chunk.New(1, payload))
		scratch = scratch[:0]
		scratch = append(scratch, byte(i))
	}
	return out
}

// okReassigned: a fresh make releases the old buffer.
func okReassigned() *chunk.Chunk {
	buf := make([]byte, 8)
	c := chunk.New(1, buf)
	buf = make([]byte, 8)
	buf[0] = 1
	_ = buf
	return c
}

// okTempExpression: an anonymous temporary cannot be reused.
func okTempExpression(prefix func() []byte, data []byte) *chunk.Chunk {
	return chunk.New(1, append(prefix(), data...))
}

func allowed() *chunk.Chunk {
	buf := make([]byte, 8)
	c := chunk.New(1, buf)
	//forkvet:allow chunkalias — fixture: negative case
	buf[0] = 0xff
	return c
}
