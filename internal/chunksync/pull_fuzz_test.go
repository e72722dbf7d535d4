package chunksync

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/postree"
	"forkbase/internal/store"
)

// putLog is a local store that remembers every chunk put into it.
type putLog struct {
	*store.MemStore
	ids []chunk.ID
}

func (s *putLog) Put(c *chunk.Chunk) (bool, error) {
	s.ids = append(s.ids, c.ID())
	return s.MemStore.Put(c)
}

// FuzzPullSubtrees pulls a seeded tree of a few hundred chunks, four
// ids a fetch, into a local store that starts with the chunks the
// input picks, through a fetch that misbehaves as the input says: for
// each call, an honest answer, a shorter prefix, a nil entry, a flipped
// byte, another id's bytes, garbage, or an error. Whatever happens, the
// pull does not panic and admits nothing that fails verification under
// its id; when it returns nil, the whole tree is local.
func FuzzPullSubtrees(f *testing.F) {
	origin := store.NewMemStore()
	b := postree.NewBuilder(origin, postree.Config{LeafQ: 8, IndexR: 3}, postree.KindBlob)
	data := make([]byte, 96<<10)
	rand.New(rand.NewSource(15)).Read(data)
	b.AppendBytes(data)
	tree, err := b.Finish()
	if err != nil {
		f.Fatal(err)
	}
	var ids []chunk.ID
	if err := tree.Walk(func(id chunk.ID, _ int) (bool, error) {
		ids = append(ids, id)
		return true, nil
	}); err != nil {
		f.Fatal(err)
	}
	raws := make(map[chunk.ID][]byte, len(ids))
	for _, id := range ids {
		c, err := origin.Get(id)
		if err != nil {
			f.Fatal(err)
		}
		raws[id] = c.Bytes()
	}
	// raw hands out a copy: a fault may flip a byte in it.
	raw := func(id chunk.ID) []byte { return append([]byte(nil), raws[id]...) }
	// The input is a bitmask over ids (which chunks start local), then
	// two bytes per fetch call: the fault, and the entry it hits.
	maskLen := (len(ids) + 7) / 8
	errFault := errors.New("fetch fault")

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, maskLen))
	f.Add(bytes.Repeat([]byte{0x55}, maskLen))
	for fault := byte(1); fault <= 6; fault++ {
		f.Add(append(make([]byte, maskLen), 0, 0, fault, 0))
		f.Add(append(bytes.Repeat([]byte{0x0f}, maskLen), 0, 0, 0, 0, 0, 0, fault, 3))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		mask := in[:min(maskLen, len(in))]
		script := in[len(mask):]
		local := &putLog{MemStore: store.NewMemStore()}
		for i, id := range ids {
			if i/8 < len(mask) && mask[i/8]>>(i%8)&1 == 1 {
				c, err := origin.Get(id)
				if err == nil {
					_, err = local.Put(c)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		fetch := func(_ context.Context, req []chunk.ID) ([][]byte, error) {
			got := make([][]byte, len(req))
			for i, id := range req {
				got[i] = raw(id)
			}
			if len(script) < 2 {
				return got, nil
			}
			fault, arg := script[0]%8, int(script[1])
			script = script[2:]
			i := arg % len(got)
			switch fault {
			case 1: // shorter prefix (none at all when i is 0)
				got = got[:i]
			case 2: // nil entry
				got[i] = nil
			case 3: // flipped byte
				got[i][arg%len(got[i])] ^= 0xff
			case 4: // another id's bytes
				other := ids[arg%len(ids)]
				if other == req[i] {
					other = ids[(arg+1)%len(ids)]
				}
				got[i] = raw(other)
			case 5: // garbage
				got[i] = bytes.Repeat([]byte{byte(arg)}, arg%64)
			case 6:
				return nil, errFault
			}
			return got, nil
		}
		_, err := Pull(context.Background(), local, fetch, tree.Root(), tree.Height(), PullConfig{Batch: 4})
		for _, id := range local.ids {
			if _, verr := store.GetVerified(local, id); verr != nil {
				t.Fatalf("local chunk %s fails verification: %v", id.Short(), verr)
			}
			if raws[id] == nil {
				t.Fatalf("local store admitted %s, which is not in the tree", id.Short())
			}
		}
		if err != nil {
			return
		}
		for _, id := range ids {
			if !local.Has(id) {
				t.Fatalf("pull returned nil but chunk %s is missing", id.Short())
			}
		}
	})
}
