// Package chunk mirrors the shape of forkbase/internal/chunk: New
// takes ownership of its payload slice.
package chunk

type Chunk struct {
	t    byte
	data []byte
}

func New(t byte, data []byte) *Chunk { return &Chunk{t: t, data: data} }

func DecodeOwned(b []byte) (*Chunk, error) { return New(b[0], b[1:]), nil }

func (c *Chunk) Data() []byte { return c.data }
