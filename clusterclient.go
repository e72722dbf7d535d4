package forkbase

import (
	"context"

	"forkbase/internal/branch"
	"forkbase/internal/cluster"
	"forkbase/internal/core"
)

// ClusterConfig configures OpenCluster. Each field names who sets it.
type ClusterConfig struct {
	// Nodes is the number of servlet/chunk-storage pairs; 0 means 4.
	// Figs 8 and 15 sweep it; the conformance suite, forkcli and
	// forkserved (-cluster n) and BenchmarkBatchPut set it.
	Nodes int
	// TwoLayer selects 2LP chunk placement (§4.6): ordinary chunks
	// partitioned across all storage instances by cid, meta chunks
	// local. False selects 1LP (all chunks on the owning servlet).
	// Fig 15 compares the two; every other user runs 2LP.
	TwoLayer bool
	// CacheBytes bounds a per-servlet chunk cache in front of the 2LP
	// shared pool — the read path that pays the (simulated) network
	// hop; 0 disables caching. Requires TwoLayer to have any effect.
	// forkcli and forkserved set it from -cache.
	CacheBytes int64
	// VerifyReads re-verifies every chunk read (from a servlet's own
	// node storage under either placement, and from the shared pool
	// under TwoLayer) against its cid, so a tampering or corrupting
	// storage node surfaces as ErrCorrupt. forkcli and forkserved set
	// it from -verify.
	VerifyReads bool
	// ACL, when set, is the access controller every dispatched request
	// passes through; pair it with WithUser. Nil means open mode. The
	// conformance suite's ACL tests and forkserved (-acl-admin) set it.
	ACL *ACL
	// AutoGCEvery, when positive, runs a cluster-wide collection after
	// every AutoGCEvery successful RemoveBranch calls through this
	// client. 0 leaves collection to explicit GC calls. The GC
	// conformance suite and forkserved (-auto-gc) set it.
	AutoGCEvery int
}

// ClusterClient is the distributed Store implementation: a thin
// adapter that has the cluster master route each call to the servlet
// owning the key and runs the contract (policy.go) — the one the
// embedded DB embeds — over that servlet's engine on its execution
// thread (§4.1). It serves the same Store API as the embedded DB, so
// applications move between deployment modes without change.
type ClusterClient struct {
	frontend // the Store methods, over cc itself

	c      *cluster.Cluster
	acl    *ACL
	autoGC autoGC
}

// OpenCluster starts a simulated ForkBase cluster (in-process servlets
// connected by channels; see internal/cluster) and returns its client.
func OpenCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	placement := cluster.OneLayer
	if cfg.TwoLayer {
		placement = cluster.TwoLayer
	}
	c, err := cluster.New(cluster.Options{
		Nodes:       cfg.Nodes,
		Placement:   placement,
		CacheBytes:  cfg.CacheBytes,
		VerifyReads: cfg.VerifyReads,
	})
	if err != nil {
		return nil, err
	}
	cc := &ClusterClient{c: c, acl: cfg.ACL, autoGC: autoGC{every: cfg.AutoGCEvery}}
	cc.frontend = frontend{cc}
	return cc, nil
}

// Cluster exposes the underlying simulated cluster for instrumentation
// (per-node storage distribution, per-servlet engines and stats).
func (cc *ClusterClient) Cluster() *cluster.Cluster { return cc.c }

// Close stops all servlets.
func (cc *ClusterClient) Close() error {
	cc.c.Close()
	return nil
}

// onOwner runs op on the execution thread of the servlet owning key
// and returns its result. On error the result is dropped unread: after
// a cancelled context the execution thread may still be writing it.
func onOwner[T any](ctx context.Context, cc *ClusterClient, key string, op func(eng *core.Engine) (T, error)) (T, error) {
	var out T
	err := cc.c.Exec(ctx, key, func(eng *core.Engine) (err error) {
		out, err = op(eng)
		return err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

func (cc *ClusterClient) get(ctx context.Context, key string, o callOpts) (*FObject, error) {
	return onOwner(ctx, cc, key, func(eng *core.Engine) (*FObject, error) {
		return contract{eng, cc.acl}.get(ctx, key, o)
	})
}

func (cc *ClusterClient) put(ctx context.Context, key string, v Value, _ *branch.Batch, o callOpts) (UID, error) {
	return onOwner(ctx, cc, key, func(eng *core.Engine) (UID, error) {
		return contract{eng, cc.acl}.put(ctx, key, v, nil, o)
	})
}

// apply dispatches batched writes once per owning servlet, paying the
// dispatch and queue slot once per group.
func (cc *ClusterClient) apply(ctx context.Context, b *Batch, o callOpts) ([]UID, error) {
	puts, err := contract{acl: cc.acl}.batch(ctx, b, o)
	if err != nil {
		return nil, err
	}
	return cc.c.PutBatch(ctx, puts)
}

func (cc *ClusterClient) fork(ctx context.Context, key, newBranch string, o callOpts) error {
	return cc.c.Exec(ctx, key, func(eng *core.Engine) error {
		return contract{eng, cc.acl}.fork(ctx, key, newBranch, o)
	})
}

func (cc *ClusterClient) merge(ctx context.Context, key, tgtBranch string, o callOpts) (UID, []Conflict, error) {
	var uid UID
	var conflicts []Conflict
	err := cc.c.Exec(ctx, key, func(eng *core.Engine) (err error) {
		uid, conflicts, err = contract{eng, cc.acl}.merge(ctx, key, tgtBranch, o)
		return err
	})
	if err != nil && ctx.Err() != nil {
		// The execution thread may still be writing uid and conflicts.
		return UID{}, nil, err
	}
	return uid, conflicts, err
}

func (cc *ClusterClient) track(ctx context.Context, key string, from, to int, o callOpts) ([]*FObject, error) {
	return onOwner(ctx, cc, key, func(eng *core.Engine) ([]*FObject, error) {
		return contract{eng, cc.acl}.track(ctx, key, from, to, o)
	})
}

// diff's key only routes the call to the servlet that holds both
// versions.
func (cc *ClusterClient) diff(ctx context.Context, key string, a, b UID, o callOpts) (*Diff, error) {
	return onOwner(ctx, cc, key, func(eng *core.Engine) (*Diff, error) {
		return contract{eng, cc.acl}.diff(ctx, key, a, b, o)
	})
}

// listKeys aggregates keys across all servlets (M8).
func (cc *ClusterClient) listKeys(ctx context.Context, o callOpts) ([]string, error) {
	if err := (contract{acl: cc.acl}).allowAll(ctx, o.User, PermRead); err != nil {
		return nil, err
	}
	return cc.c.ListKeys(ctx)
}

func (cc *ClusterClient) listBranches(ctx context.Context, key string, o callOpts) (BranchList, error) {
	return onOwner(ctx, cc, key, func(eng *core.Engine) (BranchList, error) {
		return contract{eng, cc.acl}.listBranches(ctx, key, o)
	})
}

func (cc *ClusterClient) renameBranch(ctx context.Context, key, branchName, newName string, o callOpts) error {
	return cc.c.Exec(ctx, key, func(eng *core.Engine) error {
		return contract{eng, cc.acl}.renameBranch(ctx, key, branchName, newName, o)
	})
}

// removeBranch runs a cluster-wide collection after every n-th
// successful removal under AutoGCEvery.
func (cc *ClusterClient) removeBranch(ctx context.Context, key, branchName string, o callOpts) error {
	err := cc.c.Exec(ctx, key, func(eng *core.Engine) error {
		return contract{eng, cc.acl}.removeBranch(ctx, key, branchName, o)
	})
	if err != nil {
		return err
	}
	return cc.autoGC.removed(ctx, cc.collect)
}

// pin routes the (un)pin to the servlet owning key: pins are
// enumerated as GC roots by the owning servlet's engine, and the
// version's meta chunk lives in that servlet's local storage.
func (cc *ClusterClient) pin(ctx context.Context, key string, uid UID, on bool, o callOpts) error {
	return cc.c.Exec(ctx, key, func(eng *core.Engine) error {
		return contract{eng, cc.acl}.pin(ctx, key, uid, on, o)
	})
}

// gc is one mark-and-sweep collection across every servlet and storage
// node of the cluster (global mark, per-node sweep; see
// cluster.Cluster.GC).
func (cc *ClusterClient) gc(ctx context.Context, o callOpts) (GCStats, error) {
	if err := (contract{acl: cc.acl}).allowAll(ctx, o.User, PermAdmin); err != nil {
		return GCStats{}, err
	}
	return cc.collect(ctx)
}

// collect is the one collection every GC — explicit or auto — runs.
func (cc *ClusterClient) collect(ctx context.Context) (GCStats, error) {
	return cc.c.GC(ctx)
}

// value decodes reading chunks directly from the storage visible to
// the servlet owning key, off its execution thread, the way
// dispatchers forward Get-Chunk requests straight to chunk storage
// (§4.6).
func (cc *ClusterClient) value(ctx context.Context, key string, obj *FObject, o callOpts) (Value, error) {
	return contract{cc.c.Servlet(cc.c.Master().Route(key)).Engine(), cc.acl}.value(ctx, key, obj, o)
}

var _ Store = (*ClusterClient)(nil)
