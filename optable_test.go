package forkbase_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/wire"
)

// TestEveryOpIsServedAndIssued drives the whole client surface over a
// chunk-sync RemoteStore — every Store method, Stats, ServerStats, a
// chunked put, a chunked read and a cancelled call — and then requires
// every op of the protocol to have been issued by the client and served
// by the server, as both ends' request counters see it. The one
// exception is OpChunkWantPart, which only ever travels as a response.
// An op that one end stopped handling, or that the op table lost, shows
// up here as a zero.
func TestEveryOpIsServedAndIssued(t *testing.T) {
	ctx := context.Background()
	addr, _ := startServer(t, forkbase.Open(), forkbase.ServerOptions{})
	rs, err := forkbase.Dial(addr, forkbase.RemoteConfig{ChunkSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	uid, err := rs.Put(ctx, "k", forkbase.String("v1"))
	must(err)
	_, err = rs.Put(ctx, "k", forkbase.String("v2"))
	must(err)
	o, err := rs.Get(ctx, "k")
	must(err)
	_, err = rs.Value(ctx, "k", o)
	must(err)
	_, err = rs.Apply(ctx, forkbase.NewBatch().Put("a", forkbase.String("x")).Put("b", forkbase.String("y")))
	must(err)
	must(rs.Fork(ctx, "k", "dev"))
	_, err = rs.Put(ctx, "k", forkbase.String("v3"), forkbase.WithBranch("dev"))
	must(err)
	_, _, err = rs.Merge(ctx, "k", forkbase.DefaultBranch, forkbase.WithBranch("dev"))
	must(err)
	_, err = rs.Track(ctx, "k", 0, 10)
	must(err)
	_, err = rs.Diff(ctx, "k", uid, o.UID())
	must(err)
	_, err = rs.ListKeys(ctx)
	must(err)
	_, err = rs.ListBranches(ctx, "k")
	must(err)
	must(rs.RenameBranch(ctx, "k", "dev", "dev2"))
	must(rs.RemoveBranch(ctx, "k", "dev2"))
	must(rs.Pin(ctx, "k", uid))
	must(rs.Unpin(ctx, "k", uid))
	_, err = rs.GC(ctx)
	must(err)
	_, err = rs.Stats(ctx)
	must(err)

	// A chunked put (Have, Send, PutChunked) and a chunked read (Want).
	doc := bytes.Repeat([]byte("forkbase chunk sync "), 8<<10)
	_, err = rs.Put(ctx, "doc", forkbase.NewBlob(doc))
	must(err)
	if got := readDoc(t, rs, "doc"); !bytes.Equal(got, doc) {
		t.Fatal("chunked read returned other bytes")
	}

	// A call cancelled in flight sends OpCancel. Whether a given cancel
	// lands before the response is a race, so cancel until one has.
	clientReqs := func(op uint8) int64 {
		s, _ := sampleValue(rs.MetricsSnapshot(), "forkbase_client_requests_total", `op="`+wire.OpName(op)+`"`)
		return s.Value
	}
	for i := 0; clientReqs(wire.OpCancel) == 0; i++ {
		if i == 10000 {
			t.Fatal("no call was cancelled in flight")
		}
		cctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(time.Duration(i%64)*time.Microsecond, cancel)
		rs.Track(cctx, "k", 0, 10)
		cancel()
	}

	// The server counts a request once it has answered it, so the
	// snapshot that counts ServerStats itself is the second one; the
	// cancel frame travels asynchronously, so poll for it.
	var served []forkbase.MetricSample
	for deadline := time.Now().Add(5 * time.Second); ; {
		_, err = rs.ServerStats(ctx)
		must(err)
		served, err = rs.ServerStats(ctx)
		must(err)
		if s, _ := sampleValue(served, "forkbase_server_requests_total", `op="cancel"`); s.Value > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for op := wire.OpHello; op < wire.OpMax; op++ {
		tag := `op="` + wire.OpName(op) + `"`
		if op == wire.OpChunkWantPart {
			if forkbase.ServedForTest(op) {
				t.Fatalf("%s is response-only but has a row in the op table", wire.OpName(op))
			}
			continue
		}
		if s, _ := sampleValue(served, "forkbase_server_requests_total", tag); s.Value == 0 {
			t.Errorf("server never served %s", wire.OpName(op))
		}
		if clientReqs(op) == 0 {
			t.Errorf("client never issued %s", wire.OpName(op))
		}
		if !forkbase.ServedForTest(op) && op != wire.OpHello && op != wire.OpCancel {
			t.Errorf("%s has no row in the op table and is not handled on the read loop", wire.OpName(op))
		}
	}
}
