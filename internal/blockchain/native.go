package blockchain

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"forkbase"
	"forkbase/internal/postree"
)

// Native is Hyperledger's data model re-expressed on ForkBase
// (Figure 7b). The Merkle tree and state delta are replaced by two
// levels of Map objects: the first level maps contract id to the
// version of a second-level Map, which maps data keys to the versions
// of Blob objects holding state values. The state hash of a block is
// simply the first-level Map's version uid — tamper evidence comes for
// free, and every state's history is reachable by following base
// versions (no pre-processing, no delta walk).
type Native struct {
	db       forkbase.Store
	contract string
	buffer   map[string][]byte
	// stateRefs[h] is the first-level Map uid committed at block h.
	stateRefs []forkbase.UID
}

// NewNative returns the state store for one contract. It runs against
// any Store — the embedded DB or a cluster client — since it only
// touches the unified client API.
func NewNative(db forkbase.Store, contract string) *Native {
	return &Native{db: db, contract: contract, buffer: make(map[string][]byte)}
}

func (n *Native) stateKey(key string) string { return "s/" + n.contract + "/" + key }

// blobOf decodes the Blob held by o, which was fetched under key.
func (n *Native) blobOf(ctx context.Context, key string, o *forkbase.FObject) (*forkbase.Blob, error) {
	v, err := n.db.Value(ctx, key, o)
	if err != nil {
		return nil, err
	}
	return forkbase.AsBlob(v)
}

// mapOf decodes the Map held by o, which was fetched under key.
func (n *Native) mapOf(ctx context.Context, key string, o *forkbase.FObject) (*forkbase.Map, error) {
	v, err := n.db.Value(ctx, key, o)
	if err != nil {
		return nil, err
	}
	return forkbase.AsMap(v)
}

// Read returns the latest committed value of key, or nil if it was
// never written. It does not observe the in-block write buffer, as
// Hyperledger reads do not (§5.1.1).
func (n *Native) Read(ctx context.Context, key string) ([]byte, error) {
	o, err := n.db.Get(ctx, n.stateKey(key))
	if errors.Is(err, forkbase.ErrKeyNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	b, err := n.blobOf(ctx, n.stateKey(key), o)
	if err != nil {
		return nil, err
	}
	return b.Bytes()
}

// BufferWrite stages a write for the current block, as Hyperledger
// buffers writes in memory until commit (§5.1.1).
func (n *Native) BufferWrite(key string, value []byte) {
	cp := make([]byte, len(value))
	copy(cp, value)
	n.buffer[key] = cp
}

// Commit applies the buffered writes as block height and returns the
// state commitment to embed in the block: each dirty state gets a new
// Blob version, the second-level Map is updated in one batch, and the
// first-level Map version becomes the block's state reference. Blocks
// commit in sequence; any height but the next one is an error that
// records nothing.
func (n *Native) Commit(ctx context.Context, height uint64) ([]byte, error) {
	if height != uint64(len(n.stateRefs)) {
		return nil, fmt.Errorf("blockchain: commit of block %d, next is %d", height, len(n.stateRefs))
	}
	keys := make([]string, 0, len(n.buffer))
	for k := range n.buffer {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// All dirty states commit as one batch: the engine takes each
	// state key's lock once and the cluster pays one dispatch per
	// servlet, instead of one per state.
	batch := forkbase.NewBatch()
	for _, k := range keys {
		batch.Put(n.stateKey(k), forkbase.NewBlob(n.buffer[k]))
	}
	uids, err := n.db.Apply(ctx, batch)
	if err != nil {
		return nil, err
	}
	sets := make([]postree.KV, 0, len(keys))
	for i, k := range keys {
		sets = append(sets, postree.KV{Key: []byte(k), Value: uids[i][:]})
	}
	n.buffer = make(map[string][]byte)

	// Second-level Map: data key -> Blob version.
	contractKey := "contract/" + n.contract
	var cmap *forkbase.Map
	if o, err := n.db.Get(ctx, contractKey); err == nil {
		cmap, err = n.mapOf(ctx, contractKey, o)
		if err != nil {
			return nil, err
		}
	} else if errors.Is(err, forkbase.ErrKeyNotFound) {
		cmap = forkbase.NewMap()
	} else {
		return nil, err
	}
	if err := cmap.Apply(sets, nil); err != nil {
		return nil, err
	}
	cuid, err := n.db.Put(ctx, contractKey, cmap)
	if err != nil {
		return nil, err
	}

	// First-level Map: contract -> second-level version.
	var smap *forkbase.Map
	if o, err := n.db.Get(ctx, "states"); err == nil {
		smap, err = n.mapOf(ctx, "states", o)
		if err != nil {
			return nil, err
		}
	} else if errors.Is(err, forkbase.ErrKeyNotFound) {
		smap = forkbase.NewMap()
	} else {
		return nil, err
	}
	if err := smap.Set([]byte(n.contract), cuid[:]); err != nil {
		return nil, err
	}
	suid, err := n.db.Put(ctx, "states", smap)
	if err != nil {
		return nil, err
	}
	n.stateRefs = append(n.stateRefs, suid)
	return suid[:], nil
}

// StateScan returns the historical values of key, newest first, up to
// max entries (§5.1.2). It follows the Blob's base-version chain — no
// chain scan, no pre-processing (§5.1.3).
func (n *Native) StateScan(ctx context.Context, key string, max int) ([][]byte, error) {
	if max <= 0 {
		return nil, nil
	}
	o, err := n.db.Get(ctx, n.stateKey(key))
	if errors.Is(err, forkbase.ErrKeyNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	hist, err := n.db.Track(ctx, n.stateKey(key), 0, max-1, forkbase.WithBase(o.UID()))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, 0, len(hist))
	for _, h := range hist {
		b, err := n.blobOf(ctx, n.stateKey(key), h)
		if err != nil {
			return nil, err
		}
		data, err := b.Bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

// ScanStates answers a state-scan query covering several keys at once
// (Figure 12a varies the number of keys per query). Each key's history
// is one cheap walk down its base-version chain; keys with no history
// are absent from the result.
func (n *Native) ScanStates(ctx context.Context, keys []string, max int) (map[string][][]byte, error) {
	out := make(map[string][][]byte, len(keys))
	for _, k := range keys {
		hist, err := n.StateScan(ctx, k, max)
		if err != nil {
			return nil, err
		}
		if hist != nil {
			out[k] = hist
		}
	}
	return out, nil
}

// BlockScan returns all states as of block height (§5.1.2): it
// resolves the block's first-level Map, then the contract's
// second-level Map, then each Blob version.
func (n *Native) BlockScan(ctx context.Context, height uint64) (map[string][]byte, error) {
	if height >= uint64(len(n.stateRefs)) {
		return nil, fmt.Errorf("blockchain: no block %d", height)
	}
	top, err := n.db.Get(ctx, "states", forkbase.WithBase(n.stateRefs[height]))
	if err != nil {
		return nil, err
	}
	tm, err := n.mapOf(ctx, "states", top)
	if err != nil {
		return nil, err
	}
	cref, ok, err := tm.Get([]byte(n.contract))
	if err != nil || !ok {
		return nil, err
	}
	var cuid forkbase.UID
	copy(cuid[:], cref)
	contractKey := "contract/" + n.contract
	co, err := n.db.Get(ctx, contractKey, forkbase.WithBase(cuid))
	if err != nil {
		return nil, err
	}
	cm, err := n.mapOf(ctx, contractKey, co)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	var iterErr error
	cm.Iter(func(k, v []byte) bool {
		var buid forkbase.UID
		copy(buid[:], v)
		bo, err := n.db.Get(ctx, n.stateKey(string(k)), forkbase.WithBase(buid))
		if err != nil {
			iterErr = err
			return false
		}
		b, err := n.blobOf(ctx, n.stateKey(string(k)), bo)
		if err != nil {
			iterErr = err
			return false
		}
		data, err := b.Bytes()
		if err != nil {
			iterErr = err
			return false
		}
		out[string(k)] = data
		return true
	})
	if iterErr != nil {
		return nil, iterErr
	}
	return out, nil
}
