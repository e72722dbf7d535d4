package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/workload"
)

// RunNet measures the network-serving subsystem on a TCP loopback:
// how much of the embedded engine's throughput survives the wire, and
// how pipelining depth (concurrent in-flight requests) and connection
// count buy it back. The paper serves everything through dispatchers
// (§4.1); this is the experiment that keeps our daemon honest about
// the cost of that hop.
//
// Output: one embedded baseline row, then a loopback row per
// (connections × pipelining depth) combination, for small-String puts
// and gets (per-request overhead dominated) — the workload where the
// wire hurts most. A final pair of rows shows 64 KiB Blob transfers,
// where payload bytes dominate and the gap narrows.
func RunNet(w io.Writer, scale Scale) error {
	ops := scale.pick(2_000, 50_000)
	blobOps := scale.pick(200, 5_000)

	backend := forkbase.Open()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := forkbase.NewServer(backend, forkbase.ServerOptions{})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(bgCtx, 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		backend.Close()
	}()

	fmt.Fprintln(w, "Net: loopback serving vs embedded, small String put/get")
	t := newTable(w, 22, 12, 12, 12, 12, 14, 14)
	t.row("Client", "Puts/s", "Gets/s", "Put allocs", "Get allocs", "Put p99", "Get p99")

	// Embedded baseline: the same operation mix with no wire at all.
	base, err := netSmallOps(backend, ops, 1)
	if err != nil {
		return err
	}
	t.row("embedded", rps(base.putRate), rps(base.getRate),
		apo(base.putAllocs), apo(base.getAllocs), base.put99, base.get99)

	for _, conns := range []int{1, 4} {
		for _, depth := range []int{1, 8, 32} {
			rc, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{Conns: conns})
			if err != nil {
				return err
			}
			m, err := netSmallOps(rc, ops, depth)
			rc.Close()
			if err != nil {
				return err
			}
			name := fmt.Sprintf("remote c=%d depth=%d", conns, depth)
			t.row(name, rps(m.putRate), rps(m.getRate),
				apo(m.putAllocs), apo(m.getAllocs), m.put99, m.get99)
		}
	}

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Net: 64KB Blob transfers (payload-dominated)")
	tb := newTable(w, 22, 14, 14)
	tb.row("Client", "Put MB/s", "Get MB/s")
	putMB, getMB, err := netBlobOps(backend, blobOps)
	if err != nil {
		return err
	}
	tb.row("embedded", fmt.Sprintf("%.1f", putMB), fmt.Sprintf("%.1f", getMB))
	rc, err := forkbase.Dial(ln.Addr().String(), forkbase.RemoteConfig{Conns: 4})
	if err != nil {
		return err
	}
	putMB, getMB, err = netBlobOps(rc, blobOps)
	rc.Close()
	if err != nil {
		return err
	}
	tb.row("remote c=4 depth=8", fmt.Sprintf("%.1f", putMB), fmt.Sprintf("%.1f", getMB))
	return nil
}

func rps(v float64) string { return fmt.Sprintf("%.0f", v) }

func apo(v float64) string { return fmt.Sprintf("%.1f", v) }

// netSmallMetrics is one netSmallOps measurement: throughputs, tail
// latencies, and process-wide allocations per operation. The alloc
// figure is a whole-pipeline number — on loopback it covers client
// encode, server dispatch and both frame trips — which is exactly the
// quantity the pooled hot path is supposed to hold down.
type netSmallMetrics struct {
	putRate, getRate     float64
	putAllocs, getAllocs float64
	put99, get99         time.Duration
}

// drivePool runs ops calls of fn across depth concurrent workers —
// the shape of a pipelined client — returning the wall-clock elapsed
// and, when sw is non-nil, recording per-call latencies into it. The
// lowest-indexed worker's error wins; remaining queued work still
// drains. Each worker accumulates samples and its first error in its
// own slot, merged only after the pool drains: a shared metrics mutex
// inside the timed region would serialize the workers and fold lock
// wait into the latencies being measured.
func drivePool(ops, depth int, sw *stopwatch, fn func(i int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	samples := make([][]time.Duration, depth)
	errs := make([]error, depth)
	next := make(chan int)
	t0 := time.Now()
	for d := 0; d < depth; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := range next {
				s0 := time.Now()
				callErr := fn(i)
				samples[d] = append(samples[d], time.Since(s0))
				if callErr != nil && errs[d] == nil {
					errs[d] = callErr
				}
			}
		}(d)
	}
	for i := 0; i < ops; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(t0)
	var firstErr error
	for d := 0; d < depth; d++ {
		if sw != nil {
			for _, s := range samples[d] {
				sw.add(s)
			}
		}
		if errs[d] != nil && firstErr == nil {
			firstErr = errs[d]
		}
	}
	return elapsed, firstErr
}

// netSmallOps drives ops String puts then ops gets at the given
// pipelining depth (depth concurrent workers sharing the client) and
// reports throughputs, p99 latencies and allocations per op.
func netSmallOps(st forkbase.Store, ops, depth int) (m netSmallMetrics, err error) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("net-%02d", i)
	}
	run := func(fn func(i int) error) (float64, float64, time.Duration, error) {
		var sw stopwatch
		// Mallocs deltas bracket the pool, not each call: ReadMemStats
		// stops the world, so per-call sampling would poison the very
		// latencies being measured.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		elapsed, err := drivePool(ops, depth, &sw, fn)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, 0, err
		}
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
		return float64(ops) / elapsed.Seconds(), allocs, sw.percentile(99), nil
	}
	m.putRate, m.putAllocs, m.put99, err = run(func(i int) error {
		_, err := st.Put(bgCtx, keys[i%len(keys)], forkbase.String(fmt.Sprintf("v%d", i)))
		return err
	})
	if err != nil {
		return
	}
	m.getRate, m.getAllocs, m.get99, err = run(func(i int) error {
		_, err := st.Get(bgCtx, keys[i%len(keys)])
		return err
	})
	return
}

// netBlobOps measures 64 KiB Blob write and full-read bandwidth with
// 8 concurrent workers.
func netBlobOps(st forkbase.Store, ops int) (putMBs, getMBs float64, err error) {
	const blobSize = 64 << 10
	const depth = 8
	rng := rand.New(rand.NewSource(7))
	blobs := make([][]byte, 16)
	for i := range blobs {
		blobs[i] = workload.RandText(rng, blobSize)
	}
	drive := func(fn func(i int) error) (float64, error) {
		elapsed, err := drivePool(ops, depth, nil, fn)
		if err != nil {
			return 0, err
		}
		return float64(ops) * blobSize / (1 << 20) / elapsed.Seconds(), nil
	}
	putMBs, err = drive(func(i int) error {
		_, err := st.Put(bgCtx, fmt.Sprintf("blob-%02d", i%32), forkbase.NewBlob(blobs[i%len(blobs)]))
		return err
	})
	if err != nil {
		return
	}
	getMBs, err = drive(func(i int) error {
		o, err := st.Get(bgCtx, fmt.Sprintf("blob-%02d", i%32))
		if err != nil {
			return err
		}
		v, err := st.Value(bgCtx, fmt.Sprintf("blob-%02d", i%32), o)
		if err != nil {
			return err
		}
		b, err := forkbase.AsBlob(v)
		if err != nil {
			return err
		}
		_, err = b.Bytes()
		return err
	})
	return
}
