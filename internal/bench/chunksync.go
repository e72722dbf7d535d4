package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"forkbase"
)

// RunChunkSync measures what the have/want delta-sync subsystem buys
// on versioned workloads: the bytes a client actually moves over the
// wire, full-ship Value/Put against chunk-granular transfer. Two
// experiments:
//
//  1. Bytes-on-wire vs object size — after a 1% in-place edit lands on
//     the server, how much does re-reading the object cost? Full-ship
//     re-downloads everything; chunk sync re-fetches only the chunks
//     the edit produced (the POS-Tree shares the rest), so its cost is
//     near-constant while full-ship grows linearly.
//  2. A wiki-style edit stream — one document, a run of small edits,
//     the reader re-syncing after each — accumulated wire bytes in
//     both directions (delta puts for the writer, delta re-reads for
//     the reader).
func RunChunkSync(w io.Writer, scale Scale) error {
	sizes := []int{256 << 10, 1 << 20, 4 << 20}
	if scale == Paper {
		sizes = []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	}
	edits := scale.pick(10, 50)

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
	addr := ln.Addr().String()

	fmt.Fprintln(w, "ChunkSync: bytes on the wire to re-read after a 1% edit")
	t := newTable(w, 10, 14, 14, 14, 10)
	t.row("Size", "Cold bytes", "Full-ship", "Chunk-sync", "Moved")
	rng := rand.New(rand.NewSource(11))
	for _, size := range sizes {
		key := fmt.Sprintf("doc-%d", size)
		data := make([]byte, size)
		rng.Read(data)
		if _, err := backend.Put(bgCtx, key, forkbase.NewBlob(data)); err != nil {
			return err
		}

		full, err := forkbase.Dial(addr, forkbase.RemoteConfig{})
		if err != nil {
			return err
		}
		cs, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
		if err != nil {
			full.Close()
			return err
		}
		// Cold reads populate the chunk-sync client's cache and give the
		// full-object transfer cost.
		if _, err := readBlob(full, key); err != nil {
			return err
		}
		cold := wireBytes(cs, "in")
		if _, err := readBlob(cs, key); err != nil {
			return err
		}
		cold = wireBytes(cs, "in") - cold

		if err := serverEdit(backend, key, rng, size/100); err != nil {
			return err
		}
		fullBytes := wireBytes(full, "in")
		if _, err := readBlob(full, key); err != nil {
			return err
		}
		fullBytes = wireBytes(full, "in") - fullBytes
		csBytes := wireBytes(cs, "in")
		if _, err := readBlob(cs, key); err != nil {
			return err
		}
		csBytes = wireBytes(cs, "in") - csBytes
		full.Close()
		cs.Close()

		t.row(mib(int64(size)), comma(cold), comma(fullBytes), comma(csBytes),
			fmt.Sprintf("%.1f%%", 100*float64(csBytes)/float64(size)))
	}

	// Wiki-style stream: a writer commits a run of 1% edits from its
	// own replica; a reader re-syncs after each commit. Both directions
	// accumulate: BytesSent for the writer, BytesReceived for the
	// reader, full-ship vs chunk-sync.
	fmt.Fprintln(w)
	docSize := scale.pick(1<<20, 16<<20)
	fmt.Fprintf(w, "ChunkSync: wiki edit stream (%s doc, %d edits of 1%%)\n", mib(int64(docSize)), edits)
	tw := newTable(w, 22, 16, 16, 10)
	tw.row("Client", "Writer sent", "Reader recvd", "Factor")

	var fullSent, fullRecv, csSent, csRecv int64
	for i, chunked := range []bool{false, true} {
		key := fmt.Sprintf("wiki-%d", i)
		doc := make([]byte, docSize)
		rng.Read(doc)
		cfg := forkbase.RemoteConfig{ChunkSync: chunked}
		writer, err := forkbase.Dial(addr, cfg)
		if err != nil {
			return err
		}
		reader, err := forkbase.Dial(addr, cfg)
		if err != nil {
			writer.Close()
			return err
		}
		if _, err := writer.Put(bgCtx, key, forkbase.NewBlob(doc)); err != nil {
			return err
		}
		if _, err := readBlob(reader, key); err != nil {
			return err
		}
		sent0, recv0 := wireBytes(writer, "out"), wireBytes(reader, "in")
		for e := 0; e < edits; e++ {
			// The writer edits its latest replica — over chunk sync the
			// Value is cache-backed and the Put uploads only new chunks.
			o, err := writer.Get(bgCtx, key)
			if err != nil {
				return err
			}
			v, err := writer.Value(bgCtx, key, o)
			if err != nil {
				return err
			}
			b, err := forkbase.AsBlob(v)
			if err != nil {
				return err
			}
			edit := make([]byte, docSize/100)
			rng.Read(edit)
			off := rng.Intn(docSize - len(edit))
			if err := b.Splice(uint64(off), uint64(len(edit)), edit); err != nil {
				return err
			}
			if _, err := writer.Put(bgCtx, key, b); err != nil {
				return err
			}
			if _, err := readBlob(reader, key); err != nil {
				return err
			}
		}
		sent := wireBytes(writer, "out") - sent0
		recv := wireBytes(reader, "in") - recv0
		writer.Close()
		reader.Close()
		if chunked {
			csSent, csRecv = sent, recv
		} else {
			fullSent, fullRecv = sent, recv
		}
	}
	tw.row("full-ship", comma(fullSent), comma(fullRecv), "1.0x")
	factor := float64(fullSent+fullRecv) / float64(csSent+csRecv)
	tw.row("chunk-sync", comma(csSent), comma(csRecv), fmt.Sprintf("%.1fx", factor))

	return runColdReadLatency(w, scale, backend, addr, rng)
}

// runColdReadLatency reports the wall-clock of a cold read over a link
// with real latency: through a loopback proxy injecting a fixed RTT,
// where the number of synchronous round trips — which byte counts
// cannot show — is what the deep Want and the batched pull save.
func runColdReadLatency(w io.Writer, scale Scale, backend *forkbase.DB, addr string, rng *rand.Rand) error {
	const rtt = time.Millisecond
	sizes := []int{4 << 20}
	if scale == Paper {
		sizes = []int{4 << 20, 16 << 20}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "ChunkSync: cold read wall-clock with %s RTT injected\n", rtt)
	t := newTable(w, 10, 14)
	t.row("Size", "Cold read")
	for _, size := range sizes {
		key := fmt.Sprintf("cold-%d", size)
		data := make([]byte, size)
		rng.Read(data)
		if _, err := backend.Put(bgCtx, key, forkbase.NewBlob(data)); err != nil {
			return err
		}
		proxy, err := newLatencyProxy(addr, rtt)
		if err != nil {
			return err
		}
		// Each sample dials a fresh client with an empty in-memory cache
		// so every read is genuinely cold; the dial happens outside the
		// timed window, and the timer covers Get + Value + Bytes — the
		// version lookup, the Value's Want and the fetches the read
		// makes, since a chunk-synced Value hands back a handle whose
		// reads fetch what they touch. Best of three damps scheduler
		// noise without hiding the RTT cost.
		measure := func() (time.Duration, error) {
			best := time.Duration(0)
			for i := 0; i < 3; i++ {
				rc, err := forkbase.Dial(proxy.addr(), forkbase.RemoteConfig{ChunkSync: true})
				if err != nil {
					return 0, err
				}
				t0 := time.Now()
				n, err := readBlob(rc, key)
				d := time.Since(t0)
				rc.Close()
				if err != nil {
					return 0, err
				}
				if n != size {
					return 0, fmt.Errorf("bench: cold read returned %d of %d bytes", n, size)
				}
				if best == 0 || d < best {
					best = d
				}
			}
			return best, nil
		}
		pipelined, err := measure()
		proxy.close()
		if err != nil {
			return err
		}
		t.row(mib(int64(size)), pipelined.Round(time.Microsecond))
	}
	return nil
}

// readBlob fully materializes key's blob over st and returns its size.
func readBlob(st forkbase.Store, key string) (int, error) {
	o, err := st.Get(bgCtx, key)
	if err != nil {
		return 0, err
	}
	v, err := st.Value(bgCtx, key, o)
	if err != nil {
		return 0, err
	}
	b, err := forkbase.AsBlob(v)
	if err != nil {
		return 0, err
	}
	data, err := b.Bytes()
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// serverEdit splices n random bytes into the middle of key's blob
// directly on the backend — a version the clients haven't seen.
func serverEdit(db *forkbase.DB, key string, rng *rand.Rand, n int) error {
	o, err := db.Get(bgCtx, key)
	if err != nil {
		return err
	}
	b, err := db.BlobOf(o)
	if err != nil {
		return err
	}
	edit := make([]byte, n)
	rng.Read(edit)
	if err := b.Splice(b.Len()/2, uint64(n), edit); err != nil {
		return err
	}
	_, err = db.Put(bgCtx, key, b)
	return err
}

// comma renders a byte count with thousands separators.
func comma(n int64) string {
	s := fmt.Sprintf("%d", n)
	var out bytes.Buffer
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			out.WriteByte(',')
		}
		out.WriteRune(r)
	}
	return out.String()
}

// wireBytes reads one direction ("in" or "out") of a client's wire byte
// counter — every byte on its sockets, framing included — from its
// metrics registry.
func wireBytes(rs *forkbase.RemoteStore, dir string) int64 {
	for _, m := range rs.MetricsSnapshot() {
		if m.Name == "forkbase_client_wire_bytes_total" && m.Tags == `dir="`+dir+`"` {
			return m.Value
		}
	}
	return 0
}
