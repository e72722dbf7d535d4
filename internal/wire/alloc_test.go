package wire

import (
	"bytes"
	"testing"
)

// The frame codec is the per-request floor of the whole remote path:
// every op pays it twice per direction. These pins keep the reusable
// entry points allocation-free in steady state, so pooling above them
// cannot silently rot back to a malloc per frame.

func TestAppendFrameSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 256)
	buf := make([]byte, 0, 4+frameOverhead+len(payload))
	n := testing.AllocsPerRun(200, func() {
		buf = AppendFrame(buf[:0], 7, OpGet, payload)
	})
	if n != 0 {
		t.Fatalf("AppendFrame with a warm buffer: %.1f allocs/op, want 0", n)
	}
}

func TestFramePartsSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 1024)
	n := testing.AllocsPerRun(200, func() {
		hdr, tail := FrameParts(9, OpPut, payload)
		_, _ = hdr, tail
	})
	// The 13-byte header escapes into crc32.Update; FrameParts backs
	// the large-payload writev path, where that is noise — pin it so
	// it cannot grow, not to zero.
	if n > 1 {
		t.Fatalf("FrameParts: %.1f allocs/op, want ≤1", n)
	}
}

func TestReadFrameIntoSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 512)
	frame := AppendFrame(nil, 11, OpPut, payload)
	r := bytes.NewReader(frame)
	scratch := make([]byte, 0, len(frame))
	n := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, _, _, buf, err := ReadFrameInto(r, 0, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = buf
	})
	if n != 0 {
		t.Fatalf("ReadFrameInto with a warm buffer: %.1f allocs/op, want 0", n)
	}
}

func TestEncWithSteadyStateAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	n := testing.AllocsPerRun(200, func() {
		e := EncWith(buf)
		e.U8(0)
		e.U64(42)
		e.Str("steady")
		buf = e.Bytes()
	})
	if n != 0 {
		t.Fatalf("EncWith on a warm buffer: %.1f allocs/op, want 0", n)
	}
}

// TestFrameBufCycleAllocs: taking a buffer from the frame pool and
// handing it back allocates nothing — neither the buffer nor the
// pointer the pool stores it under.
func TestFrameBufCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	PutFrameBuf(GetFrameBuf())
	n := testing.AllocsPerRun(200, func() {
		b := GetFrameBuf()
		PutFrameBuf(append(b, "frame"...))
	})
	if n != 0 {
		t.Fatalf("GetFrameBuf/PutFrameBuf cycle: %.1f allocs/op, want 0", n)
	}
}

// TestFramePartsMatchesAppendFrame pins the scatter-gather encoding
// to the canonical one: a reader cannot tell which write path built a
// frame.
func TestFramePartsMatchesAppendFrame(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("p"), bytes.Repeat([]byte("q"), 4096)} {
		want := AppendFrame(nil, 77, OpGet, payload)
		hdr, tail := FrameParts(77, OpGet, payload)
		got := append(append(append([]byte(nil), hdr[:]...), payload...), tail[:]...)
		if !bytes.Equal(got, want) {
			t.Fatalf("FrameParts(payload len %d) diverges from AppendFrame", len(payload))
		}
	}
}

// TestFrameBufPoolRoundTrip exercises the pool contract: grown
// buffers come back empty, oversized ones are dropped rather than
// pinned.
func TestFrameBufPoolRoundTrip(t *testing.T) {
	b := GetFrameBuf()
	if len(b) != 0 {
		t.Fatalf("pooled buffer arrived non-empty: len %d", len(b))
	}
	b = append(b, make([]byte, 8192)...)
	PutFrameBuf(b)
	PutFrameBuf(make([]byte, maxPooledBuf+1)) // must not be retained
	if c := GetFrameBuf(); cap(c) > maxPooledBuf {
		t.Fatalf("pool retained a %d-byte buffer past the %d cap", cap(c), maxPooledBuf)
	}
}
