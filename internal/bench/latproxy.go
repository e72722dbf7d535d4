package bench

// latencyProxy is a loopback TCP forwarder that injects a fixed
// one-way delay in each direction, for experiments that talk to a
// real forkserved socket, where a time.Sleep inside the server would
// be invisible to the client's connection pipelining.
//
// The delay is added without throttling bandwidth: a reader goroutine
// drains the source as fast as bytes arrive and stamps each segment;
// a writer goroutine releases segments only once their stamp is delay
// old. Back-to-back segments therefore overlap their delays — a bulk
// stream still moves at loopback speed — while every request/response
// turnaround pays the configured round trip, which is exactly how a
// long fat pipe behaves.

import (
	"net"
	"sync"
	"time"
)

type latencyProxy struct {
	ln     net.Listener
	target string
	delay  time.Duration // one-way: half the injected RTT

	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

// newLatencyProxy starts a proxy forwarding to target with rtt split
// evenly across the two directions.
func newLatencyProxy(target string, rtt time.Duration) (*latencyProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &latencyProxy{ln: ln, target: target, delay: rtt / 2}
	go p.accept()
	return p, nil
}

func (p *latencyProxy) addr() string { return p.ln.Addr().String() }

func (p *latencyProxy) close() {
	p.mu.Lock()
	p.done = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// track registers a connection for teardown; false once closed.
func (p *latencyProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	p.conns = append(p.conns, c)
	return true
}

func (p *latencyProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		if !p.track(c) || !p.track(up) {
			c.Close()
			up.Close()
			return
		}
		go p.pipe(up, c)
		go p.pipe(c, up)
	}
}

// pipe forwards src to dst, releasing each segment delay after its
// arrival. Either end closing (or erroring) tears down both: the
// benchmarks proxy one protocol connection, not independent half
// streams.
func (p *latencyProxy) pipe(dst, src net.Conn) {
	type seg struct {
		buf []byte
		due time.Time
	}
	ch := make(chan seg, 1024)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 128<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- seg{buf[:n], time.Now().Add(p.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for s := range ch {
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(s.buf); err != nil {
			break
		}
	}
	// Closing src unblocks the reader goroutine; draining ch lets it
	// observe the close even if it was mid-send.
	src.Close()
	dst.Close()
	for range ch { //nolint:revive // intentional drain
	}
}
