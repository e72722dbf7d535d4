package forkbase_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	forkbase "forkbase"
	"forkbase/internal/wire"
)

// countingWriter counts Write calls and keeps every byte, so a test can
// both count syscalls and parse the frames back. slow makes each Write
// take long enough for concurrent writers to pile up behind it, as a
// socket write does.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
	slow   time.Duration
}

func (w *countingWriter) Write(p []byte) (int, error) {
	time.Sleep(w.slow)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

// frames parses what was written back into frames, failing on any
// torn or corrupt one.
func (w *countingWriter) frames(t *testing.T) int {
	t.Helper()
	r := bytes.NewReader(w.buf.Bytes())
	n := 0
	for r.Len() > 0 {
		if _, _, _, err := wire.ReadFrame(r, 0); err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		n++
	}
	return n
}

// TestFrameWriterCorksPipelinedWriters: writers that each have a
// request in flight on the connection yield before claiming the flush,
// and their frames share writes — fewer writes than frames.
func TestFrameWriterCorksPipelinedWriters(t *testing.T) {
	const writers, each = 8, 20
	w := &countingWriter{slow: 100 * time.Microsecond}
	var inFlight atomic.Int32
	inFlight.Store(writers)
	fw := forkbase.NewFrameWriterForTest(w, func() bool { return inFlight.Load() > 1 })
	payload := bytes.Repeat([]byte("p"), 64)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer inFlight.Add(-1)
			for i := 0; i < each; i++ {
				if err := fw.WriteFrame(uint64(g*each+i), wire.OpGet, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.frames(t); got != writers*each {
		t.Fatalf("%d frames reached the writer, want %d", got, writers*each)
	}
	if w.writes >= writers*each {
		t.Fatalf("%d writes for %d frames: pipelined writers did not cork", w.writes, writers*each)
	}
	if fw.Yields() == 0 {
		t.Fatal("no writer yielded, though every one had a peer in flight")
	}
}

// TestFrameWriterLoneWriterNeverYields: a writer with no other request
// in flight writes each frame at once — one write per frame, and not
// one yield.
func TestFrameWriterLoneWriterNeverYields(t *testing.T) {
	const frames = 50
	w := &countingWriter{}
	fw := forkbase.NewFrameWriterForTest(w, func() bool { return false })
	for i := 0; i < frames; i++ {
		if err := fw.WriteFrame(uint64(i), wire.OpGet, []byte("lone")); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.frames(t); got != frames {
		t.Fatalf("%d frames reached the writer, want %d", got, frames)
	}
	if w.writes != frames {
		t.Fatalf("%d writes for %d lone frames, want one each", w.writes, frames)
	}
	if y := fw.Yields(); y != 0 {
		t.Fatalf("a lone writer yielded %d times, want 0", y)
	}
}
