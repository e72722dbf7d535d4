// Command forkcli is an interactive shell over a ForkBase store,
// exercising the unified Store API from the command line. The same
// shell drives every deployment mode: embedded (default, optionally
// persistent with -path), a simulated cluster (-cluster N), or a
// running forkserved daemon over TCP (-connect host:port) — the point
// of the one-surface client API.
//
// Usage:
//
//	forkcli [-path dir | -cluster n | -connect host:port] [-user name]
//	        [-token t] [-cache bytes] [-verify] [-chunksync]
//	        [-chunkcache dir]
//
// Without -path the store is in-memory and vanishes on exit; with it,
// versions persist in a log-structured chunk store and remain reachable
// by uid across runs. With -cluster n, requests dispatch to n
// in-process servlets by key hash. With -connect, every subcommand
// below runs against the remote daemon (-token supplies its -auth
// token); -user still selects the identity its ACL checks. Adding
// -chunksync moves large values chunk-by-chunk — only chunks the other
// side is missing cross the wire — and -chunkcache keeps the fetched
// chunks in a directory that outlives the session, so repeat reads of
// barely-changed objects transfer only their deltas (-cache bounds
// that cache's in-memory tier).
//
// Commands:
//
//	put <key> <value...>            write to master
//	putb <key> <branch> <value...>  write to a branch
//	batch <key=value> [...]         batched write (one lock/dispatch group)
//	get <key> [branch]              read a branch head
//	getu <key> <uid>                read a version by uid
//	keys                            list keys
//	branches <key>                  list tagged branches and untagged heads
//	fork <key> <ref> <new>          fork a branch
//	merge <key> <tgt> <ref>         merge branches (choose-ref on conflict)
//	track <key> [n]                 show the last n versions (default 5)
//	diff <key> <uid1> <uid2>        compare two versions
//	verify <key>                    verify a key's history hash chain
//	rmbranch <key> <branch>         drop a branch name (its exclusive
//	                                chunks become garbage)
//	gc                              collect unreachable chunks and
//	                                compact storage
//	stats                           storage statistics (embedded only)
//	stats -server [-watch d]        live per-op server metrics over the
//	                                wire (-connect only): request counts,
//	                                error counts and latency quantiles;
//	                                -watch re-polls every d and shows
//	                                deltas until interrupted
//	info                            store stats plus recovered metadata:
//	                                keys, branches, untagged heads, pins,
//	                                journal/snapshot sizes — the state a
//	                                reopen recovers
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"forkbase"
)

func main() {
	path := flag.String("path", "", "persist the store in this directory")
	nodes := flag.Int("cluster", 0, "run against a simulated cluster of n servlets")
	connect := flag.String("connect", "", "drive a running forkserved at this host:port")
	token := flag.String("token", "", "auth token for -connect (the daemon's -auth)")
	user := flag.String("user", "", "user the requests run as")
	cacheBytes := flag.Int64("cache", 0, "chunk-cache byte budget on the read path (0 = off)")
	verify := flag.Bool("verify", false, "re-verify every chunk read against its cid")
	chunkSync := flag.Bool("chunksync", false, "with -connect: transfer chunk deltas instead of whole values")
	chunkCache := flag.String("chunkcache", "", "with -connect: persist fetched chunks in this directory (implies -chunksync)")
	flag.Parse()

	var st forkbase.Store
	switch {
	case *connect != "":
		rs, err := forkbase.Dial(*connect, forkbase.RemoteConfig{
			AuthToken:       *token,
			ChunkSync:       *chunkSync,
			ChunkCacheDir:   *chunkCache,
			ChunkCacheBytes: *cacheBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		st = rs
		fmt.Printf("forkbase server at %s\n", *connect)
	case *nodes > 0:
		cc, err := forkbase.OpenCluster(forkbase.ClusterConfig{
			Nodes:       *nodes,
			TwoLayer:    true,
			CacheBytes:  *cacheBytes,
			VerifyReads: *verify,
		})
		if err != nil {
			log.Fatal(err)
		}
		st = cc
		fmt.Printf("simulated forkbase cluster, %d servlets\n", *nodes)
	case *path != "":
		db, err := forkbase.OpenPath(*path,
			forkbase.WithCacheBytes(*cacheBytes), forkbase.WithVerifyReads(*verify))
		if err != nil {
			log.Fatal(err)
		}
		st = db
		fmt.Printf("forkbase store at %s\n", *path)
	default:
		st = forkbase.Open(
			forkbase.WithCacheBytes(*cacheBytes), forkbase.WithVerifyReads(*verify))
		fmt.Println("in-memory forkbase store")
	}
	defer st.Close()

	sh := &shell{st: st, user: *user}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		args := strings.Fields(sc.Text())
		if len(args) > 0 {
			if args[0] == "quit" || args[0] == "exit" {
				return
			}
			if err := sh.run(args); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("> ")
	}
}

type shell struct {
	st   forkbase.Store
	user string
}

// as extends opts with the shell's user identity.
func (sh *shell) as(opts ...forkbase.Option) []forkbase.Option {
	if sh.user != "" {
		opts = append(opts, forkbase.WithUser(sh.user))
	}
	return opts
}

func (sh *shell) run(args []string) error {
	ctx := context.Background()
	st := sh.st
	switch args[0] {
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("usage: put <key> <value...>")
		}
		uid, err := st.Put(ctx, args[1], forkbase.NewBlob([]byte(strings.Join(args[2:], " "))), sh.as()...)
		if err != nil {
			return err
		}
		fmt.Println("version", uid.Short())
	case "putb":
		if len(args) < 4 {
			return fmt.Errorf("usage: putb <key> <branch> <value...>")
		}
		uid, err := st.Put(ctx, args[1], forkbase.NewBlob([]byte(strings.Join(args[3:], " "))),
			sh.as(forkbase.WithBranch(args[2]))...)
		if err != nil {
			return err
		}
		fmt.Println("version", uid.Short())
	case "batch":
		if len(args) < 2 {
			return fmt.Errorf("usage: batch <key=value> [...]")
		}
		b := forkbase.NewBatch()
		for _, kv := range args[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("batch entries are key=value, got %q", kv)
			}
			b.Put(k, forkbase.NewBlob([]byte(v)))
		}
		uids, err := st.Apply(ctx, b, sh.as()...)
		if err != nil {
			return err
		}
		for i, uid := range uids {
			fmt.Printf("%s -> version %s\n", args[1+i], uid.Short())
		}
	case "get":
		if len(args) < 2 {
			return fmt.Errorf("usage: get <key> [branch]")
		}
		opts := sh.as()
		if len(args) > 2 {
			opts = append(opts, forkbase.WithBranch(args[2]))
		}
		o, err := st.Get(ctx, args[1], opts...)
		if err != nil {
			return err
		}
		return sh.printObject(args[1], o)
	case "getu":
		if len(args) != 3 {
			return fmt.Errorf("usage: getu <key> <uid>")
		}
		uid, err := forkbase.ParseUID(args[2])
		if err != nil {
			return err
		}
		o, err := st.Get(ctx, args[1], sh.as(forkbase.WithBase(uid))...)
		if err != nil {
			return err
		}
		return sh.printObject(args[1], o)
	case "keys":
		keys, err := st.ListKeys(ctx, sh.as()...)
		if err != nil {
			return err
		}
		for _, k := range keys {
			fmt.Println(k)
		}
	case "branches":
		if len(args) != 2 {
			return fmt.Errorf("usage: branches <key>")
		}
		bl, err := st.ListBranches(ctx, args[1], sh.as()...)
		if err != nil {
			return err
		}
		for _, b := range bl.Tagged {
			fmt.Printf("%-20s %s\n", b.Name, b.Head)
		}
		for _, uid := range bl.Untagged {
			fmt.Printf("%-20s %s\n", "(untagged)", uid)
		}
	case "fork":
		if len(args) != 4 {
			return fmt.Errorf("usage: fork <key> <ref-branch> <new-branch>")
		}
		return st.Fork(ctx, args[1], args[3], sh.as(forkbase.WithBranch(args[2]))...)
	case "merge":
		if len(args) != 4 {
			return fmt.Errorf("usage: merge <key> <tgt-branch> <ref-branch>")
		}
		uid, conflicts, err := st.Merge(ctx, args[1], args[2],
			sh.as(forkbase.WithBranch(args[3]), forkbase.WithResolver(forkbase.ChooseB))...)
		if err != nil {
			return fmt.Errorf("%w (%d conflicts)", err, len(conflicts))
		}
		fmt.Println("merged into", uid.Short())
	case "track":
		if len(args) < 2 {
			return fmt.Errorf("usage: track <key> [n]")
		}
		n := 5
		if len(args) > 2 {
			var err error
			if n, err = strconv.Atoi(args[2]); err != nil {
				return err
			}
		}
		hist, err := st.Track(ctx, args[1], 0, n-1, sh.as()...)
		if err != nil {
			return err
		}
		for i, o := range hist {
			fmt.Printf("-%d %s depth=%d\n", i, o.UID().Short(), o.Depth)
		}
	case "diff":
		if len(args) != 4 {
			return fmt.Errorf("usage: diff <key> <uid1> <uid2>")
		}
		u1, err := forkbase.ParseUID(args[2])
		if err != nil {
			return err
		}
		u2, err := forkbase.ParseUID(args[3])
		if err != nil {
			return err
		}
		d, err := st.Diff(ctx, args[1], u1, u2, sh.as()...)
		if err != nil {
			return err
		}
		switch {
		case d.Sorted != nil:
			fmt.Printf("+%d -%d ~%d (leaves shared %d)\n",
				len(d.Sorted.Added), len(d.Sorted.Removed), len(d.Sorted.Modified), d.Sorted.SharedLeaves)
		case d.Unsorted != nil:
			fmt.Printf("shared leaves %d, only-left %d, only-right %d\n",
				d.Unsorted.SharedLeaves, d.Unsorted.OnlyA, d.Unsorted.OnlyB)
		default:
			fmt.Println("equal:", d.PrimitiveEqual)
		}
	case "verify":
		if len(args) != 2 {
			return fmt.Errorf("usage: verify <key>")
		}
		db, ok := sh.st.(*forkbase.DB)
		if !ok {
			return fmt.Errorf("verify is embedded-only for now")
		}
		o, err := st.Get(ctx, args[1], sh.as()...)
		if err != nil {
			return err
		}
		n, err := db.VerifyHistory(o)
		if err != nil {
			return err
		}
		fmt.Printf("ok: %d versions verified\n", n)
	case "rmbranch":
		if len(args) != 3 {
			return fmt.Errorf("usage: rmbranch <key> <branch>")
		}
		if err := st.RemoveBranch(ctx, args[1], args[2], sh.as()...); err != nil {
			return err
		}
		fmt.Printf("removed %s/%s (run gc to reclaim its chunks)\n", args[1], args[2])
	case "gc":
		stats, err := st.GC(ctx, sh.as()...)
		if err != nil {
			return err
		}
		fmt.Println(stats)
	case "stats":
		if len(args) > 1 && args[1] == "-server" {
			return sh.serverStats(ctx, args[2:])
		}
		switch x := sh.st.(type) {
		case *forkbase.DB:
			fmt.Println(x.Stats())
		case *forkbase.RemoteStore:
			s, err := x.Stats(ctx)
			if err != nil {
				return err
			}
			fmt.Println(s)
		default:
			return fmt.Errorf("stats needs an embedded or remote store")
		}
	case "info":
		return sh.info(ctx)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

// serverStats renders the server's live per-op metrics (stats -server):
// one row per op that has seen traffic, with request and error counts
// and latency quantiles from the server's histograms. With -watch it
// re-polls on an interval and shows per-interval deltas — quantiles
// then describe only the ops of that interval — until interrupted.
func (sh *shell) serverStats(ctx context.Context, args []string) error {
	rs, ok := sh.st.(*forkbase.RemoteStore)
	if !ok {
		return fmt.Errorf("stats -server needs -connect")
	}
	var watch time.Duration
	for i := 0; i < len(args); i++ {
		if args[i] != "-watch" || i+1 >= len(args) {
			return fmt.Errorf("usage: stats -server [-watch <interval>]")
		}
		d, err := time.ParseDuration(args[i+1])
		if err != nil || d <= 0 {
			return fmt.Errorf("-watch needs a positive duration, got %q", args[i+1])
		}
		watch = d
		i++
	}
	prev, err := rs.ServerStats(ctx)
	if err != nil {
		return err
	}
	printServerStats(prev, nil)
	for watch > 0 {
		time.Sleep(watch)
		cur, err := rs.ServerStats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("--- %s (last %v) ---\n", time.Now().Format("15:04:05"), watch)
		printServerStats(cur, prev)
		prev = cur
	}
	return nil
}

// tagValue extracts v from a `k="v"` tag string.
func tagValue(tags, key string) string {
	_, rest, ok := strings.Cut(tags, key+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}

// printServerStats renders one snapshot; with prev non-nil every
// counter and histogram is differenced against it first, so the table
// describes only the traffic since the previous poll.
func printServerStats(cur, prev []forkbase.MetricSample) {
	base := make(map[string]forkbase.MetricSample, len(prev))
	for _, s := range prev {
		base[s.Name+"\x00"+s.Tags] = s
	}
	diff := func(s forkbase.MetricSample) forkbase.MetricSample {
		p, ok := base[s.Name+"\x00"+s.Tags]
		if !ok {
			return s
		}
		s.Value -= p.Value
		s.Sum -= p.Sum
		if len(s.Buckets) == len(p.Buckets) {
			b := make([]uint64, len(s.Buckets))
			for i := range b {
				b[i] = s.Buckets[i] - p.Buckets[i]
			}
			s.Buckets = b
		}
		return s
	}
	type row struct {
		reqs, errs    int64
		p50, p90, p99 time.Duration
	}
	rows := make(map[string]*row)
	var ops []string
	get := func(op string) *row {
		r, ok := rows[op]
		if !ok {
			r = &row{}
			rows[op] = r
			ops = append(ops, op)
		}
		return r
	}
	for _, s := range cur {
		op := tagValue(s.Tags, "op")
		if op == "" {
			continue
		}
		switch s.Name {
		case "forkbase_server_requests_total":
			get(op).reqs = diff(s).Value
		case "forkbase_server_request_errors_total":
			get(op).errs = diff(s).Value
		case "forkbase_server_latency_ns":
			d := diff(s)
			r := get(op)
			r.p50 = time.Duration(d.Quantile(0.5))
			r.p90 = time.Duration(d.Quantile(0.9))
			r.p99 = time.Duration(d.Quantile(0.99))
		}
	}
	fmt.Printf("%-16s %10s %8s %10s %10s %10s\n", "op", "requests", "errors", "p50", "p90", "p99")
	for _, op := range ops {
		r := rows[op]
		if r.reqs == 0 {
			continue
		}
		fmt.Printf("%-16s %10d %8d %10v %10v %10v\n", op, r.reqs, r.errs, r.p50, r.p90, r.p99)
	}
	for _, s := range cur {
		switch s.Name {
		case "forkbase_server_wire_bytes_total", "forkbase_server_chunksync_bytes_total":
			if d := diff(s); d.Value > 0 {
				fmt.Printf("%s{%s}: %d bytes\n", strings.TrimPrefix(s.Name, "forkbase_server_"), s.Tags, d.Value)
			}
		case "forkbase_server_inflight_requests", "forkbase_server_queue_depth":
			fmt.Printf("%s: %d\n", strings.TrimPrefix(s.Name, "forkbase_server_"), s.Value)
		}
	}
}

// info prints store statistics plus the metadata a reopen would
// recover: every key's branches and untagged heads, the pin set, and
// the journal/snapshot footprint — the quickest way to eyeball that a
// reopened store came back with the state the previous process held.
func (sh *shell) info(ctx context.Context) error {
	keys, err := sh.st.ListKeys(ctx, sh.as()...)
	if err != nil {
		return err
	}
	tagged, untagged := 0, 0
	for _, k := range keys {
		bl, err := sh.st.ListBranches(ctx, k, sh.as()...)
		if err != nil {
			return err
		}
		tagged += len(bl.Tagged)
		untagged += len(bl.Untagged)
		fmt.Printf("%s: %d branches, %d untagged heads\n", k, len(bl.Tagged), len(bl.Untagged))
		for _, b := range bl.Tagged {
			fmt.Printf("  %-20s %s\n", b.Name, b.Head.Short())
		}
		for _, uid := range bl.Untagged {
			fmt.Printf("  %-20s %s\n", "(untagged)", uid.Short())
		}
	}
	fmt.Printf("total: %d keys, %d branches, %d untagged heads\n", len(keys), tagged, untagged)
	if rs, ok := sh.st.(*forkbase.RemoteStore); ok {
		if s, err := rs.Stats(ctx); err == nil {
			fmt.Println(s)
		}
		fmt.Println("(pins and journals live on the server)")
		return nil
	}
	db, ok := sh.st.(*forkbase.DB)
	if !ok {
		fmt.Println("(per-servlet pins and journals: cluster nodes hold their own)")
		return nil
	}
	pins := db.Engine().Pins()
	fmt.Printf("pins: %d\n", len(pins))
	for _, uid := range pins {
		fmt.Printf("  %s\n", uid.Short())
	}
	if ms, ok := db.MetaStats(); ok {
		fmt.Println(ms)
	} else {
		fmt.Println("journal: none (in-memory store)")
	}
	fmt.Println(db.Stats())
	return nil
}

func (sh *shell) printObject(key string, o *forkbase.FObject) error {
	v, err := sh.st.Value(context.Background(), key, o, sh.as()...)
	if err != nil {
		return err
	}
	switch x := v.(type) {
	case *forkbase.Blob:
		data, err := x.Bytes()
		if err != nil {
			return err
		}
		fmt.Printf("%s (uid %s, depth %d)\n", data, o.UID().Short(), o.Depth)
	default:
		fmt.Printf("%v (uid %s, depth %d)\n", v, o.UID().Short(), o.Depth)
	}
	return nil
}
