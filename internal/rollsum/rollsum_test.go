package rollsum

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"forkbase/internal/chunk"
)

func TestRollerDeterministic(t *testing.T) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	a, b := NewRoller(), NewRoller()
	for _, x := range data {
		if a.Roll(x) != b.Roll(x) {
			t.Fatal("two rollers diverged on identical input")
		}
	}
}

// The defining property of a rolling hash: the value depends only on the
// last WindowSize bytes, not on anything before them.
func TestRollerWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tail := make([]byte, WindowSize)
	rng.Read(tail)
	prefixA := make([]byte, 300)
	prefixB := make([]byte, 17)
	rng.Read(prefixA)
	rng.Read(prefixB)

	a, b := NewRoller(), NewRoller()
	for _, x := range prefixA {
		a.Roll(x)
	}
	for _, x := range prefixB {
		b.Roll(x)
	}
	var va, vb uint64
	for _, x := range tail {
		va = a.Roll(x)
		vb = b.Roll(x)
	}
	if va != vb {
		t.Fatalf("hash depends on bytes outside the window: %x vs %x", va, vb)
	}
}

func TestRollerPrimed(t *testing.T) {
	r := NewRoller()
	for i := 0; i < WindowSize-1; i++ {
		r.Roll(byte(i))
		if r.Primed() {
			t.Fatalf("primed after %d bytes", i+1)
		}
	}
	r.Roll(0)
	if !r.Primed() {
		t.Fatal("not primed after a full window")
	}
	r.Reset()
	if r.Primed() || r.Sum() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

// Boundary frequency should be close to 1/2^q on random data.
func TestLeafPatternFrequency(t *testing.T) {
	const q = 8 // expect 1 boundary per 256 bytes
	p := NewLeafPattern(q)
	r := NewRoller()
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1<<20)
	rng.Read(data)
	hits := 0
	for _, x := range data {
		if v := r.Roll(x); r.Primed() && p.Match(v) {
			hits++
		}
	}
	want := len(data) / 256
	if hits < want/2 || hits > want*2 {
		t.Fatalf("boundary rate off: got %d hits, want about %d", hits, want)
	}
}

// scanCuts drives Scan over data on the Blob path, the input arriving
// in one call, and returns the size of every chunk it closes.
func scanCuts(c *Chunker, data []byte) (sizes []int) {
	for start, off := 0, 0; off < len(data); {
		n, cut := c.Scan(data[start:off], data[off:])
		off += n
		if cut {
			sizes = append(sizes, off-start)
			start = off
			c.Next()
		}
	}
	return sizes
}

func TestChunkerSizes(t *testing.T) {
	const q = 10 // 1 KiB expected
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 1<<20)
	rng.Read(data)
	sizes := scanCuts(NewChunker(q, 8<<q), data)
	if len(sizes) == 0 {
		t.Fatal("no chunks produced")
	}
	total := 0
	for _, s := range sizes {
		total += s
		if s > 8<<q {
			t.Fatalf("chunk size %d exceeds max %d", s, 8<<q)
		}
	}
	avg := total / len(sizes)
	if avg < (1<<q)/2 || avg > (1<<q)*2 {
		t.Fatalf("average chunk size %d far from expected %d", avg, 1<<q)
	}
}

// Chunk boundaries must be content-defined: the same data yields the
// same boundaries regardless of how it is sliced into Scan calls.
func TestChunkerSliceInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<16)
	rng.Read(data)

	a, _ := scanPieces(10, 8<<10, data, []int{1 << 16})
	b, _ := scanPieces(10, 8<<10, data, []int{7})
	if len(a) == 0 || !slices.Equal(a, b) {
		t.Fatalf("boundaries differ with the slicing: %v vs %v", head(a), head(b))
	}
}

func TestChunkerMaxSizeForced(t *testing.T) {
	// Repeated content has no patterns (§4.3.3): every chunk must be
	// forced at max size.
	zeros := make([]byte, 64<<10)
	for _, s := range scanCuts(NewChunker(10, 4096), zeros) {
		if s != 4096 {
			t.Fatalf("forced chunk size %d, want 4096", s)
		}
	}
}

func TestChunkerElementExtension(t *testing.T) {
	// Scanning whole elements: a boundary inside an element ends the
	// chunk at the element's end.
	c := NewChunker(6, 1<<12) // tiny chunks so patterns fire often
	rng := rand.New(rand.NewSource(6))
	elem := make([]byte, 500)
	rng.Read(elem)
	var leaf []byte
	boundaries := 0
	for i := 0; i < 100; i++ {
		n, cut := c.Scan(leaf, elem)
		if !cut && n != len(elem) {
			t.Fatalf("no boundary, but only %d of %d bytes taken", n, len(elem))
		}
		leaf = append(leaf, elem...)
		if cut {
			boundaries++
			leaf = leaf[:0]
			c.Next()
		}
	}
	if boundaries == 0 {
		t.Fatal("no boundaries over 50KB with 64-byte expected chunks")
	}
}

// eachPiece cuts data into consecutive pieces whose lengths cycle
// through splits and calls fn with each piece's bounds.
func eachPiece(data []byte, splits []int, fn func(off, end int)) {
	for off, i := 0, 0; off < len(data); i++ {
		end := off + splits[i%len(splits)]
		if end > len(data) {
			end = len(data)
		}
		fn(off, end)
		off = end
	}
}

// oracleElems places boundaries the way the paper describes, one byte
// at a time through Roller.Roll: a boundary follows an element if the
// pattern matched at a primed position inside it or the chunk reached
// maxSize. It returns the end offset and size of every chunk it closes.
func oracleElems(q uint, maxSize int, data []byte, splits []int) (ends, sizes []int) {
	r, pat := NewRoller(), NewLeafPattern(q)
	size, hit := 0, false
	eachPiece(data, splits, func(off, end int) {
		for _, b := range data[off:end] {
			if v := r.Roll(b); r.Primed() && pat.Match(v) {
				hit = true
			}
		}
		size += end - off
		if hit || size >= maxSize {
			ends, sizes = append(ends, end), append(sizes, size)
			r.Reset()
			size, hit = 0, false
		}
	})
	return ends, sizes
}

// scanElems drives Scan with elements cut by splits, each passed
// whole: a boundary inside one ends the chunk at the element's end.
func scanElems(q uint, maxSize int, data []byte, splits []int) (ends, sizes []int) {
	c := NewChunker(q, maxSize)
	start := 0
	eachPiece(data, splits, func(off, end int) {
		if _, cut := c.Scan(data[start:off], data[off:end]); cut {
			ends, sizes = append(ends, end), append(sizes, end-start)
			start = end
			c.Next()
		}
	})
	return ends, sizes
}

// scanPieces drives Scan on the Blob path with the input arriving in
// calls cut by splits, so that the window straddles calls.
func scanPieces(q uint, maxSize int, data []byte, splits []int) (ends, sizes []int) {
	c := NewChunker(q, maxSize)
	start, pos := 0, 0
	eachPiece(data, splits, func(off, end int) {
		for pos < end {
			n, cut := c.Scan(data[start:pos], data[pos:end])
			pos += n
			if cut {
				ends, sizes = append(ends, pos), append(sizes, pos-start)
				start = pos
				c.Next()
			}
		}
	})
	return ends, sizes
}

// checkAgainstOracle compares both Scan paths with the byte-at-a-time
// oracle for one input cut by splits.
func checkAgainstOracle(t *testing.T, name string, q uint, maxSize int, data []byte, splits []int) {
	t.Helper()
	wantEnds, wantSizes := oracleElems(q, maxSize, data, splits)
	if ends, sizes := scanElems(q, maxSize, data, splits); !slices.Equal(ends, wantEnds) || !slices.Equal(sizes, wantSizes) {
		t.Errorf("%s: Scan in elements of %v bytes cut at %v (sizes %v), oracle at %v (sizes %v)",
			name, splits, head(ends), head(sizes), head(wantEnds), head(wantSizes))
	}
	// A Blob is a stream of one-byte elements however its calls fall.
	wantEnds, wantSizes = oracleElems(q, maxSize, data, []int{1})
	if ends, sizes := scanPieces(q, maxSize, data, splits); !slices.Equal(ends, wantEnds) || !slices.Equal(sizes, wantSizes) {
		t.Errorf("%s: Scan over calls of %v bytes cut at %v (sizes %v), oracle at %v (sizes %v)",
			name, splits, head(ends), head(sizes), head(wantEnds), head(wantSizes))
	}
}

// head trims a boundary list for a failure message.
func head(a []int) []int {
	if len(a) > 8 {
		return a[:8]
	}
	return a
}

// Scan must place boundaries exactly where the paper's byte-at-a-time
// algorithm (Roller.Roll, Primed, Match) does, on both paths, however
// the input is cut into elements or calls — in particular when a call
// ends inside the first WindowSize bytes of a chunk, on the window's
// edge, or just past it.
func TestChunkerMatchesRoller(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 200<<10)
	rng.Read(random)
	flat := make([]byte, 200<<10) // pattern-free: every boundary is forced
	for i := range flat {
		flat[i] = 0xAB
	}
	cases := []struct {
		name    string
		q       uint
		maxSize int
		data    []byte
	}{
		{"random", 10, 8 << 10, random},
		{"random-dense", 6, 8 << 6, random},
		{"random-small-max", 10, 100, random},
		{"flat", 10, 8 << 10, flat},
		{"flat-small-max", 10, 49, flat},
	}
	for _, tc := range cases {
		for _, split := range []int{1, 47, 48, 49, 4096} {
			checkAgainstOracle(t, tc.name, tc.q, tc.maxSize, tc.data, []int{split})
		}
		checkAgainstOracle(t, tc.name, tc.q, tc.maxSize, tc.data, []int{1, 47, 48, 49, 4096, 3})
	}
	// The flat input really is pattern-free.
	if _, sizes := oracleElems(10, 8<<10, flat, []int{1}); len(sizes) == 0 || sizes[0] != 8<<10 {
		t.Fatalf("flat input cut at sizes %v, want forced cuts of %d", head(sizes), 8<<10)
	}
}

// FuzzChunkerSplits checks both Scan paths against the oracle for
// arbitrary bytes, split points and leaf parameters.
func FuzzChunkerSplits(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 47, 48, 49, 300, 5000} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data, []byte{0, 46, 47, 48, 200}, uint8(2), false)
		f.Add(data, []byte{255}, uint8(4), true)
	}
	f.Add(make([]byte, 4096), []byte{10, 99}, uint8(1), true)
	f.Fuzz(func(t *testing.T, data, splits []byte, q8 uint8, smallMax bool) {
		q := uint(4 + q8%7)
		maxSize := 8 << q
		if smallMax {
			maxSize = 1 + int(q8)
		}
		// Each split byte s is a piece of s+1 bytes; the pieces repeat
		// until data is used up.
		runs := []int{len(data) + 1}
		if len(splits) > 0 {
			runs = runs[:0]
			for _, s := range splits {
				runs = append(runs, int(s)+1)
			}
		}
		checkAgainstOracle(t, "fuzz", q, maxSize, data, runs)
	})
}

func TestIndexPattern(t *testing.T) {
	p := NewIndexPattern(4) // 1 in 16
	hits := 0
	const n = 4096
	for i := 0; i < n; i++ {
		c := chunk.New(chunk.TypeBlob, []byte{byte(i), byte(i >> 8)})
		if p.Match(c.ID()) {
			hits++
		}
	}
	want := n / 16
	if hits < want/2 || hits > want*2 {
		t.Fatalf("index pattern rate off: got %d, want about %d", hits, want)
	}
}

// resumeAgrees scans data[:seen] into one chunker and data[:at] into
// another, then hands both the leaf data[:at] — for the first it ends
// in data[seen:at], a copied run it has not seen — and drives them over
// data[at:], by element-sized Scans and on the Blob path. It reports
// whether every decision agreed. data must place no boundary in its
// first at bytes.
func resumeAgrees(t *testing.T, q uint, max int, data []byte, seen, at, elem int) bool {
	t.Helper()
	full, res := NewChunker(q, max), NewChunker(q, max)
	if n, cut := full.Scan(nil, data[:at]); n != at || cut {
		t.Fatalf("precondition: boundary inside the first %d bytes", at)
	}
	res.Scan(nil, data[:seen])
	fullB, resB := *full, *res

	start := 0
	for off := at; off < len(data); off += elem {
		end := min(off+elem, len(data))
		n1, cut1 := full.Scan(data[start:off], data[off:end])
		n2, cut2 := res.Scan(data[start:off], data[off:end])
		if n1 != n2 || cut1 != cut2 {
			return false
		}
		if cut1 {
			full.Next()
			res.Next()
			start = end
		}
	}
	start = 0
	for off := at; off < len(data); {
		n1, cut1 := fullB.Scan(data[start:off], data[off:])
		n2, cut2 := resB.Scan(data[start:off], data[off:])
		if n1 != n2 || cut1 != cut2 {
			return false
		}
		off += n1
		if cut1 {
			fullB.Next()
			resB.Next()
			start = off
		}
	}
	return true
}

// firstBoundary returns how many bytes of data a fresh chunker takes
// before placing its first boundary (len(data) if it places none).
func firstBoundary(q uint, max int, data []byte) int {
	n, _ := NewChunker(q, max).Scan(nil, data)
	return n
}

// A Scan that resumes after a copied run of any length — the leaf grew
// by bytes the chunker never saw — decides as one scan over the whole
// leaf does.
func TestChunkerResumeTable(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(11)).Read(data)
	const q, max = 12, 1 << 15
	quiet := firstBoundary(q, max, data) - 1 // bytes known to place no boundary
	if quiet < 3*WindowSize {
		t.Fatalf("seed gives only %d quiet bytes", quiet)
	}
	for _, at := range []int{0, 1, WindowSize - 1, WindowSize, WindowSize + 1, 2 * WindowSize, quiet} {
		for _, seen := range []int{0, 1, at / 2, at - WindowSize, at - 1, at} {
			if seen < 0 {
				continue
			}
			for _, elem := range []int{1, 7, WindowSize, 100} {
				if !resumeAgrees(t, q, max, data, seen, at, elem) {
					t.Errorf("Scan after a copied run [%d, %d) (elements of %d bytes) decided differently from one scan", seen, at, elem)
				}
			}
		}
	}
	// The forced cut counts the copied run.
	if n, cut := NewChunker(20, 100).Scan(data[:58], data[58:]); n != 42 || !cut {
		t.Errorf("forced cut after a copied run of 58 of 100: consumed %d, cut %v", n, cut)
	}
	// After Next, a copied run as long as the chunk the chunker last
	// scanned must not revive that chunk's hash.
	other := make([]byte, quiet)
	rand.New(rand.NewSource(12)).Read(other)
	for _, at := range []int{1, WindowSize - 1, WindowSize, WindowSize + 1, quiet} {
		c := NewChunker(q, max)
		c.Scan(nil, other[:at])
		c.Next()
		fresh := NewChunker(q, max)
		fresh.Scan(nil, data[:at])
		n1, cut1 := c.Scan(data[:at], data[at:])
		n2, cut2 := fresh.Scan(data[:at], data[at:])
		if n1 != n2 || cut1 != cut2 {
			t.Errorf("copied run of %d bytes after Next, the old chunk's size: cut at %d (%v), one scan at %d (%v)", at, n1, cut1, n2, cut2)
		}
	}
}

func TestQuickChunkerResume(t *testing.T) {
	f := func(seed int64, at16, seen16 uint16, elem8 uint8, q3 uint8) bool {
		data := make([]byte, 2048)
		rand.New(rand.NewSource(seed)).Read(data)
		q := uint(5 + q3%6)
		max := 8 << q
		quiet := firstBoundary(q, max, data) - 1
		if quiet <= 0 {
			return true
		}
		at := int(at16) % (quiet + 1)
		return resumeAgrees(t, q, max, data, int(seen16)%(at+1), at, 1+int(elem8)%200)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkerScanAllocs: a Scan allocates nothing, on either path and
// whether or not it rebuilds the hash after a copied run.
func TestChunkerScanAllocs(t *testing.T) {
	data := make([]byte, 8<<10)
	rand.New(rand.NewSource(13)).Read(data)
	c := NewChunker(12, 8<<12)
	at := 0
	allocs := testing.AllocsPerRun(100, func() {
		c.Scan(data[:at], data[at:at+100])
		c.Scan(data[:at+100], data[at+100:])
		c.Next()
		at = (at + 37) % (4 << 10)
	})
	if allocs != 0 {
		t.Fatalf("Scan: %v allocations per call pair, want 0", allocs)
	}
}
