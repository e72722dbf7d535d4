// Command forkserved serves a ForkBase store over the network: the
// paper's dispatcher role (§4.1) as a standalone daemon. Any client
// holding a forkbase.RemoteStore — or forkcli -connect — speaks the
// same unified Store API against it that embedded code uses, over a
// compact length-prefixed binary protocol with request pipelining.
//
// Usage:
//
//	forkserved [-listen addr] [-path dir | -cluster n] [flags]
//
// Backend selection mirrors forkcli: in-memory by default, a
// persistent log-structured store with -path (branches, pins and
// heads recover on restart), or a simulated in-process cluster with
// -cluster n.
//
// Flags:
//
//	-listen addr       TCP listen address (default :7707)
//	-path dir          persist the store in this directory
//	-cluster n         serve a simulated cluster of n servlets
//	-auth token        require this token in each connection's Hello
//	-acl-admin user    close the ACL; grant user global admin
//	-cache bytes       chunk-cache byte budget on the read path
//	-verify            re-verify every chunk read against its cid
//	-meta-sync         survive a power loss: fsync the chunk log and the
//	                   metadata journal once per journal flush (-path)
//	-gc-threshold r    segment compaction live-ratio threshold (-path only)
//	-auto-gc n         run GC after every n branch removals
//	-max-frame bytes   largest request/response frame accepted (each
//	                   client learns it in the Hello)
//	-drain d           graceful-shutdown drain budget (default 30s)
//	-debug-addr addr   serve /metrics (Prometheus text) and
//	                   /debug/pprof on this HTTP address (off by
//	                   default; bind to loopback)
//	-slow-op d         log every op dispatched slower than d (0 = off)
//
// On SIGTERM or SIGINT the daemon drains: the listener closes,
// in-flight requests finish and flush, new requests are refused with
// a typed shutting-down error, and the process exits 0. A second
// signal — or the drain budget expiring — cuts remaining work off.
//
// Security: the protocol is plaintext and the trust boundary is the
// listener. Bind to loopback or a private network; -auth guards
// against accidental cross-talk, not adversaries. The same goes for
// -debug-addr: it is unauthenticated and pprof can dump heap contents,
// so never expose it beyond loopback or a private network. See the
// README's "Serving over the network" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"forkbase"
	"forkbase/internal/obs"
)

func main() {
	listen := flag.String("listen", ":7707", "TCP listen address")
	path := flag.String("path", "", "persist the store in this directory")
	nodes := flag.Int("cluster", 0, "serve a simulated cluster of n servlets")
	auth := flag.String("auth", "", "require this token in each connection's Hello")
	aclAdmin := flag.String("acl-admin", "", "close the ACL and grant this user global admin")
	cacheBytes := flag.Int64("cache", 0, "chunk-cache byte budget on the read path (0 = off)")
	verify := flag.Bool("verify", false, "re-verify every chunk read against its cid")
	metaSync := flag.Bool("meta-sync", false, "survive a power loss: fsync the chunk log and the journal per journal flush (-path only)")
	gcThreshold := flag.Float64("gc-threshold", 0, "segment compaction live-ratio threshold (-path only; 0 = default)")
	autoGC := flag.Int("auto-gc", 0, "run GC after every n branch removals (0 = off)")
	maxFrame := flag.Int("max-frame", 0, "largest request/response frame in bytes (0 = 256 MiB)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this HTTP address (unauthenticated; keep it on loopback)")
	slowOp := flag.Duration("slow-op", 0, "log every op dispatched slower than this (0 = off)")
	flag.Parse()

	var acl *forkbase.ACL
	if *aclAdmin != "" {
		acl = forkbase.NewACL(false)
		acl.Grant(*aclAdmin, "", "", forkbase.PermAdmin)
	}

	var st forkbase.Store
	var err error
	switch {
	case *nodes > 0 && *path != "":
		log.Fatal("forkserved: -path and -cluster are mutually exclusive")
	case *nodes > 0:
		st, err = forkbase.OpenCluster(forkbase.ClusterConfig{
			Nodes:       *nodes,
			TwoLayer:    true,
			CacheBytes:  *cacheBytes,
			VerifyReads: *verify,
			ACL:         acl,
			AutoGCEvery: *autoGC,
		})
	case *path != "":
		st, err = forkbase.OpenPath(*path, forkbase.Options{
			MetaSync:    *metaSync,
			CacheBytes:  *cacheBytes,
			VerifyReads: *verify,
			ACL:         acl,
			GCThreshold: *gcThreshold,
			AutoGCEvery: *autoGC,
		})
	default:
		st = forkbase.Open(forkbase.Options{
			CacheBytes:  *cacheBytes,
			VerifyReads: *verify,
			ACL:         acl,
			AutoGCEvery: *autoGC,
		})
	}
	if err != nil {
		log.Fatalf("forkserved: open backend: %v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("forkserved: listen: %v", err)
	}
	srv := forkbase.NewServer(st, forkbase.ServerOptions{
		AuthToken:       *auth,
		MaxFrame:        *maxFrame,
		Logf:            log.Printf,
		SlowOpThreshold: *slowOp,
	})

	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(srv.MetricsSnapshot))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("forkserved: debug listen: %v", err)
		}
		log.Printf("forkserved: debug endpoint (metrics, pprof) on %s — unauthenticated, keep it private", dln.Addr())
		go func() {
			if err := http.Serve(dln, mux); err != nil {
				log.Printf("forkserved: debug endpoint: %v", err)
			}
		}()
	}

	backend := "in-memory"
	switch {
	case *nodes > 0:
		backend = fmt.Sprintf("simulated cluster, %d servlets", *nodes)
	case *path != "":
		backend = fmt.Sprintf("persistent store at %s", *path)
	}
	log.Printf("forkserved: serving %s on %s", backend, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		log.Printf("forkserved: %v: draining (budget %v; signal again to cut off)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		go func() {
			<-sigs
			cancel()
		}()
		err := srv.Shutdown(ctx)
		cancel()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Printf("forkserved: shutdown: %v", err)
			os.Exit(1)
		}
		log.Printf("forkserved: drained cleanly")
	case err := <-serveErr:
		st.Close()
		log.Fatalf("forkserved: serve: %v", err)
	}
}
