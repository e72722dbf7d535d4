// Package chunk mirrors the shape of forkbase/internal/chunk: New
// takes ownership of its payload slice, and DecodeStored of its record
// buffer, taking the id on trust.
package chunk

type Chunk struct {
	t    byte
	data []byte
}

func New(t byte, data []byte) *Chunk { return &Chunk{t: t, data: data} }

type ID [32]byte

func DecodeStored(b []byte, id ID) (*Chunk, error) { return &Chunk{t: b[0], data: b[1:]}, nil }

func (c *Chunk) Data() []byte { return c.data }
