package forkbase

import "forkbase/internal/core"

// Batch groups writes so a Store can amortize per-operation costs:
// the embedded engine acquires each key's update lock once per batch
// group and defers the branch-table head update to the end of the
// group, and the cluster client dispatches one request per owning
// servlet instead of one per write (paying the network hop once).
//
// Writes to the same key and branch chain within the batch: each
// derives from the previous one, exactly as the same sequence of
// individual Puts would. A batch is applied atomically per key — if
// any write in a key's group fails (e.g. a guard mismatch), none of
// that key's head updates become visible — but not across keys.
//
// Build a batch with NewBatch and Put, then hand it to Store.Apply:
//
//	b := forkbase.NewBatch().
//		Put("k1", forkbase.String("v1")).
//		Put("k2", forkbase.String("v2"), forkbase.WithBranch("dev"))
//	uids, err := st.Apply(ctx, b)
type Batch struct {
	puts []core.BatchPut
	err  error
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put appends a write to the batch. The options mirror Store.Put:
// WithBranch selects the branch, WithGuard makes the write conditional
// on the branch head, WithMeta attaches version metadata. WithBase
// (fork-on-conflict) is not supported in batches — use Store.Put; a
// batch carrying one fails at Apply with ErrBadOptions rather than
// silently dropping the option.
func (b *Batch) Put(key string, v Value, opts ...Option) *Batch {
	o := resolveOpts(opts)
	return b.put(key, v, &o)
}

// put is Put under an already-resolved option set; the server decodes
// a wire batch's entries straight into one. A batched write takes no
// base: the entry keeps its place, and the batch fails at Apply.
func (b *Batch) put(key string, v Value, o *callOpts) *Batch {
	if len(o.Bases) > 0 && b.err == nil {
		b.err = ErrBadOptions
	}
	b.puts = append(b.puts, core.BatchPut{
		Key:    []byte(key),
		Branch: o.branchOr(DefaultBranch),
		Value:  v,
		Meta:   o.Meta,
		Guard:  o.Guard,
	})
	return b
}

// Len returns the number of writes in the batch.
func (b *Batch) Len() int { return len(b.puts) }
