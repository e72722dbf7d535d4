package forkbase_test

// Power-loss harness. A process kill leaves the operating system's page
// cache behind; a power loss does not. It keeps the bytes of each file
// as of that file's last fsync, the directory entries as of the
// directory's last fsync, and any subset of what was written since
// (ALICE, Pillai et al., OSDI 2014; CrashMonkey, Mohan et al., OSDI
// 2018). The harness follows a store directory through a script, from
// the hooks the chunk log and the metadata journal fire after every
// fsync and at every step of a collection or a journal compaction. At
// each of those points, and after each acknowledged call, it rebuilds
// the directory a power loss may leave: first only what was fsynced,
// then with seeded random subsets of the unsynced bytes (by page) and
// directory entries. Each image must open under MetaSync, every
// recovered head must resolve to the content it named, with its
// history, and the recovered branches and pins must be the state after
// some prefix of the script that holds every acknowledged call.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	forkbase "forkbase"
)

// plPage is the unit a power loss keeps or drops of unsynced bytes.
const plPage = 4096

// plFile is one file of the directory, followed across renames.
type plFile struct {
	name    string // current name; "" once unlinked
	durable []byte // bytes as of its last fsync; nil if never synced
	last    []byte // bytes at the last point, shared while unchanged
}

// plDisk is what a power loss would keep of a store directory.
type plDisk struct {
	t       *testing.T
	dir     string
	names   map[string]*plFile // the directory now
	entries map[string]*plFile // the directory as of its last fsync
}

// refresh matches the directory listing: a new name is a new file, a
// missing one was unlinked.
func (d *plDisk) refresh() {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		d.t.Fatal(err)
	}
	seen := make(map[string]bool, len(ents))
	for _, e := range ents {
		seen[e.Name()] = true
		if d.names[e.Name()] == nil {
			d.names[e.Name()] = &plFile{name: e.Name()}
		}
	}
	for name, f := range d.names {
		if !seen[name] {
			f.name = ""
			delete(d.names, name)
		}
	}
}

func (d *plDisk) read(f *plFile) []byte {
	data, err := os.ReadFile(filepath.Join(d.dir, f.name))
	if err != nil {
		d.t.Fatal(err)
	}
	if bytes.Equal(data, f.last) {
		return f.last
	}
	f.last = data
	return data
}

// fsynced records that name's bytes are durable as they stand.
func (d *plDisk) fsynced(name string) {
	d.refresh()
	f := d.names[name]
	if f == nil {
		d.t.Fatalf("fsync of %s, which the directory does not hold", name)
	}
	f.durable = d.read(f)
}

// dirSynced records that the directory's entries are durable.
func (d *plDisk) dirSynced() {
	d.refresh()
	d.entries = make(map[string]*plFile, len(d.names))
	for name, f := range d.names {
		d.entries[name] = f
	}
}

func (d *plDisk) renamed(from, to string) {
	f := d.names[from]
	if f == nil {
		d.t.Fatalf("rename of %s, which the directory does not hold", from)
	}
	delete(d.names, from)
	f.name = to
	d.names[to] = f
}

// plFileSnap is one file as a point saw it.
type plFileSnap struct {
	durable, now []byte
	linked       bool // still in the directory; else now is unknown
}

// plEntry is one name: the file it names now and as of the last
// directory fsync, either nil.
type plEntry struct {
	name     string
	now, was *plFileSnap
}

// plPoint is one moment of the run a power loss could hit.
type plPoint struct {
	label   string
	entries []plEntry
}

func (d *plDisk) point(label string) plPoint {
	d.refresh()
	snaps := map[*plFile]*plFileSnap{}
	snap := func(f *plFile) *plFileSnap {
		if f == nil {
			return nil
		}
		if s, ok := snaps[f]; ok {
			return s
		}
		s := &plFileSnap{durable: f.durable, linked: f.name != ""}
		if s.linked {
			s.now = d.read(f)
		}
		snaps[f] = s
		return s
	}
	p := plPoint{label: label}
	for name := range d.names {
		p.entries = append(p.entries, plEntry{name: name})
	}
	for name := range d.entries {
		if d.names[name] == nil {
			p.entries = append(p.entries, plEntry{name: name})
		}
	}
	sort.Slice(p.entries, func(i, j int) bool { return p.entries[i].name < p.entries[j].name })
	for i := range p.entries {
		e := &p.entries[i]
		e.now, e.was = snap(d.names[e.name]), snap(d.entries[e.name])
	}
	return p
}

// image is what a power loss at p may leave, file name to bytes: with
// rng nil, only what was fsynced; else each name takes its entry as of
// now or as of the last directory fsync, and each file keeps its
// durable bytes plus a random run of what followed them, page by page.
func (p plPoint) image(rng *rand.Rand) map[string][]byte {
	img := map[string][]byte{}
	for _, e := range p.entries {
		f := e.was
		if rng != nil && e.now != e.was && rng.Intn(2) == 0 {
			f = e.now
		}
		if f == nil {
			continue
		}
		data := f.durable
		if rng != nil && f.linked {
			data = tornTail(f.durable, f.now, rng)
		}
		img[e.name] = data
	}
	return img
}

// tornTail is what a power loss may leave of a file whose last fsync
// saw durable and which now holds now: the durable bytes, if now
// truncated them and the truncation is lost; else the bytes both share,
// then a random prefix of the rest with random pages never written.
func tornTail(durable, now []byte, rng *rand.Rand) []byte {
	same := 0
	for same < len(durable) && same < len(now) && durable[same] == now[same] {
		same++
	}
	if same < len(durable) && rng.Intn(2) == 0 {
		return durable
	}
	n := same + rng.Intn(len(now)-same+1)
	out := append([]byte(nil), now[:n]...)
	for page := same / plPage * plPage; page < n; page += plPage {
		if rng.Intn(2) == 0 {
			for i := max(page, same); i < min(page+plPage, n); i++ {
				out[i] = 0
			}
		}
	}
	return out
}

// plState is the recovered branches and pins: per key its tagged and
// untagged heads, one line each, and the pin count under key "".
type plState map[string][]string

func (s plState) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		for _, line := range s[k] {
			fmt.Fprintf(&b, "%q %s\n", k, line)
		}
	}
	return b.String()
}

// readState lists db's heads and pins, and the uids of the heads.
func readState(t *testing.T, db *forkbase.DB) (plState, map[string]forkbase.UID) {
	t.Helper()
	ctx := context.Background()
	keys, err := db.ListKeys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := plState{}
	heads := map[string]forkbase.UID{}
	for _, k := range keys {
		bl, err := db.ListBranches(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, tb := range bl.Tagged {
			lines = append(lines, fmt.Sprintf("branch %s %s", tb.Name, tb.Head))
			heads[k+"\x00"+tb.Name] = tb.Head
		}
		for _, u := range bl.Untagged {
			lines = append(lines, fmt.Sprintf("untagged %s", u))
			heads[k+"\x00untagged "+u.String()] = u
		}
		if len(lines) > 0 {
			sort.Strings(lines)
			st[k] = lines
		}
	}
	ms, _ := db.MetaStats()
	st[""] = []string{fmt.Sprintf("pins %d", ms.Pins)}
	return st, heads
}

// valueDigest reads the version uid of key in full and hashes it, after
// checking the hash chain of its history.
func valueDigest(db *forkbase.DB, key string, uid forkbase.UID) (string, error) {
	ctx := context.Background()
	o, err := db.Get(ctx, key, forkbase.WithBase(uid))
	if err != nil {
		return "", err
	}
	if _, err := db.VerifyHistory(o); err != nil {
		return "", err
	}
	v, err := db.Value(ctx, key, o)
	if err != nil {
		return "", err
	}
	var data []byte
	switch v := v.(type) {
	case forkbase.String:
		data = []byte(v)
	case *forkbase.Blob:
		if data, err = v.Bytes(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("value of type %T", v)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// plOp is one call of the script. An Apply names its keys in put
// order: its records share one flush, so a power loss may keep any
// prefix of them.
type plOp struct {
	name  string
	run   func() error
	batch []string
}

// powerLoss runs script on db, opened in dir, and checks every point.
type powerLoss struct {
	t       *testing.T
	disk    *plDisk
	scratch string
	random  int // random images per point
	points  []plPoint
	digests map[forkbase.UID]string
	images  int
	checked map[[32]byte]bool // images already recovered, with what they were held to
}

func newPowerLoss(t *testing.T, dir string, db *forkbase.DB) *powerLoss {
	pl := &powerLoss{
		t:       t,
		disk:    &plDisk{t: t, dir: dir, names: map[string]*plFile{}, entries: map[string]*plFile{}},
		scratch: t.TempDir(),
		random:  3,
		digests: map[forkbase.UID]string{},
		checked: map[[32]byte]bool{},
	}
	if raceEnabled {
		pl.random = 1
	}
	db.SetCrashHooksForTest(func(event string, seg int) {
		switch event {
		case "synced":
			pl.disk.fsynced(fmt.Sprintf("seg-%06d.log", seg))
		case "dir-synced":
			pl.disk.dirSynced()
		}
		pl.points = append(pl.points, pl.disk.point(fmt.Sprintf("chunk log %s (seg %d)", event, seg)))
	}, func(event string) {
		switch event {
		case "synced":
			pl.disk.fsynced("meta.wal")
		case "snap-written":
			pl.disk.fsynced("meta.snap.tmp")
		case "snap-renamed":
			pl.disk.renamed("meta.snap.tmp", "meta.snap")
			pl.disk.dirSynced()
		}
		pl.points = append(pl.points, pl.disk.point("journal "+event))
	})
	return pl
}

// run applies the script. After each call it checks the points the
// call passed, against the states before and after it, and then the
// point just after it returned, against the state after it alone.
func (pl *powerLoss) run(db *forkbase.DB, script []plOp) {
	t := pl.t
	prev, _ := readState(t, db)
	for i, op := range script {
		if err := op.run(); err != nil {
			t.Fatalf("op %d (%s): %v", i, op.name, err)
		}
		next, heads := readState(t, db)
		for kh, uid := range heads {
			if _, ok := pl.digests[uid]; !ok {
				d, err := valueDigest(db, strings.SplitN(kh, "\x00", 2)[0], uid)
				if err != nil {
					t.Fatalf("op %d (%s): live head %s: %v", i, op.name, uid, err)
				}
				pl.digests[uid] = d
			}
		}
		allowed := []plState{prev}
		for k := 1; k < len(op.batch); k++ {
			mid := plState{}
			for key, lines := range prev {
				mid[key] = lines
			}
			for _, key := range op.batch[:k] {
				mid[key] = next[key]
			}
			allowed = append(allowed, mid)
		}
		allowed = append(allowed, next)
		for _, p := range pl.points {
			pl.check(p, fmt.Sprintf("op %d (%s): %s", i, op.name, p.label), allowed)
		}
		pl.points = pl.points[:0]
		pl.check(pl.disk.point("returned"), fmt.Sprintf("op %d (%s) returned", i, op.name), []plState{next})
		prev = next
	}
}

// check opens the images of p and holds each to allowed. An image
// already held to the same states is not opened again.
func (pl *powerLoss) check(p plPoint, where string, allowed []plState) {
	t := pl.t
	for r := 0; r <= pl.random; r++ {
		var rng *rand.Rand
		kind := "fsynced bytes only"
		if r > 0 {
			rng = rand.New(rand.NewSource(int64(pl.images)))
			kind = fmt.Sprintf("random image %d", pl.images)
		}
		pl.images++
		img := p.image(rng)
		names := make([]string, 0, len(img))
		for name := range img {
			names = append(names, name)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, st := range allowed {
			fmt.Fprintf(h, "%s\x00", st)
		}
		for _, name := range names {
			fmt.Fprintf(h, "%s %d\x00", name, len(img[name]))
			h.Write(img[name])
		}
		var sum [32]byte
		h.Sum(sum[:0])
		if pl.checked[sum] {
			continue
		}
		pl.checked[sum] = true
		dir := filepath.Join(pl.scratch, "img")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range img {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := pl.recovered(dir, allowed); err != nil {
			t.Fatalf("power loss at %s, %s: %v", where, kind, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func (pl *powerLoss) recovered(dir string, allowed []plState) error {
	db, err := forkbase.OpenPath(dir, forkbase.WithMetaSync(true))
	if err != nil {
		return fmt.Errorf("reopen: %v", err)
	}
	defer db.Close()
	got, heads := readState(pl.t, db)
	ok := false
	for _, st := range allowed {
		ok = ok || got.String() == st.String()
	}
	if !ok {
		return fmt.Errorf("recovered state\n%sis no prefix of the script holding every acknowledged call; want one of\n%v", got, allowed)
	}
	for kh, uid := range heads {
		key := strings.SplitN(kh, "\x00", 2)[0]
		d, err := valueDigest(db, key, uid)
		if err != nil {
			return fmt.Errorf("head %s of %q does not resolve: %v", uid, key, err)
		}
		if d != pl.digests[uid] {
			return fmt.Errorf("head %s of %q resolves to other content", uid, key)
		}
	}
	return nil
}

// plBlob is n bytes of seeded noise, so that no two chunks dedup.
func plBlob(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// powerLossScript is the script both harness tests run: puts, a
// multi-MiB Blob across several segments, an untagged head, forks, a
// rename, a run of puts in one journal scope, a pin, removals, journal
// compactions (on the SnapshotEvery cadence and forced), a full
// collection, then a young-only one that compacts the segments of a
// dropped branch and relocates the live chunks written beside it.
func powerLossScript(t *testing.T, db *forkbase.DB) []plOp {
	ctx := context.Background()
	put := func(key string, v forkbase.Value, opts ...forkbase.Option) func() error {
		return func() error { _, err := db.Put(ctx, key, v, opts...); return err }
	}
	head := func(key, branch string) forkbase.UID {
		o, err := db.Get(ctx, key, forkbase.WithBranch(branch))
		if err != nil {
			t.Fatal(err)
		}
		return o.UID()
	}
	doc := plBlob(1, 3<<20)
	edited := append(append([]byte(nil), doc[:1<<20]...), plBlob(2, 64<<10)...)
	edited = append(edited, doc[1<<20:]...)
	batch := forkbase.NewBatch()
	var batchKeys []string
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("row-%d", i)
		batch.Put(k, forkbase.String(fmt.Sprintf("row %d", i)))
		batchKeys = append(batchKeys, k)
	}
	var full forkbase.GCStats
	ops := []plOp{
		{name: "put a", run: put("a", forkbase.String("a1"))},
		{name: "put a again", run: put("a", forkbase.String("a2"))},
		{name: "put the 3 MiB doc", run: put("doc", forkbase.NewBlob(doc))},
		{name: "untagged put on a", run: func() error {
			_, err := db.Put(ctx, "a", forkbase.String("a-side"), forkbase.WithBase(head("a", forkbase.DefaultBranch)))
			return err
		}},
		{name: "fork doc dev", run: func() error { return db.Fork(ctx, "doc", "dev") }},
		{name: "edit doc on dev", run: put("doc", forkbase.NewBlob(edited), forkbase.WithBranch("dev"))},
		{name: "rename dev to feature", run: func() error { return db.RenameBranch(ctx, "doc", "dev", "feature") }},
		{name: "apply six rows", run: func() error { _, err := db.Apply(ctx, batch); return err }, batch: batchKeys},
		{name: "pin a", run: func() error { return db.Pin(ctx, "a", head("a", forkbase.DefaultBranch)) }},
		{name: "fork a old", run: func() error { return db.Fork(ctx, "a", "old") }},
		{name: "remove a old", run: func() error { return db.RemoveBranch(ctx, "a", "old") }},
		{name: "full collection", run: func() error {
			var err error
			full, err = db.GC(ctx)
			return err
		}},
		{name: "fork doc scratch", run: func() error { return db.Fork(ctx, "doc", "scratch") }},
	}
	// Dead and live chunks side by side in the young segments: the
	// scratch branch's versions die with it, e's stay.
	for i := 0; i < 3; i++ {
		ops = append(ops,
			plOp{name: fmt.Sprintf("rewrite doc on scratch (%d)", i), run: put("doc", forkbase.NewBlob(plBlob(int64(10+i), 256<<10)), forkbase.WithBranch("scratch"))},
			plOp{name: fmt.Sprintf("put e (%d)", i), run: put("e", forkbase.NewBlob(plBlob(int64(20+i), 32<<10)))})
	}
	return append(ops, []plOp{
		{name: "remove doc scratch", run: func() error { return db.RemoveBranch(ctx, "doc", "scratch") }},
		{name: "young-only collection", run: func() error {
			st, err := db.GC(ctx)
			if err == nil && (st.Relocated == 0 || st.Marked >= full.Marked) {
				err = fmt.Errorf("want a young-only collection that relocates: %+v after the full %+v", st, full)
			}
			return err
		}},
		{name: "compact the journal", run: db.CompactMeta},
		{name: "put b", run: put("b", forkbase.String("after the compactions"))},
	}...)
}

// TestPowerLossMetaSync: under MetaSync every acknowledged call
// survives a power loss at any point, and nothing half-done breaks a
// recovered head.
func TestPowerLossMetaSync(t *testing.T) {
	dir := t.TempDir()
	db, err := forkbase.OpenPath(dir, forkbase.Options{
		MetaSync:      true,
		SegmentSize:   512 << 10,
		SnapshotEvery: 8,
		GCThreshold:   0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pl := newPowerLoss(t, dir, db)
	pl.run(db, powerLossScript(t, db))
	t.Logf("%d power-loss images, %d distinct ones recovered", pl.images, len(pl.checked))
}

// TestMetaSyncFsyncCounts pins what MetaSync costs: one chunk-log
// fsync and one journal fsync per journal flush, however many chunks
// the flush covers, and no chunk-log fsync for a flush that wrote no
// chunk.
func TestMetaSyncFsyncCounts(t *testing.T) {
	db, err := forkbase.OpenPath(t.TempDir(), forkbase.WithMetaSync(true))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	step := func(what string, wantChunkLog int64, run func() error) {
		t.Helper()
		chunkLog, journal := chunkLogFsyncs(db), journalFsyncs(db)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := chunkLogFsyncs(db) - chunkLog; got != wantChunkLog {
			t.Errorf("%s: %d chunk-log fsyncs, want %d", what, got, wantChunkLog)
		}
		if got := journalFsyncs(db) - journal; got != 1 {
			t.Errorf("%s: %d journal fsyncs, want 1", what, got)
		}
	}
	step("a 4 MiB Blob put", 1, func() error {
		_, err := db.Put(ctx, "doc", forkbase.NewBlob(plBlob(4, 4<<20)))
		return err
	})
	if s := db.Stats(); s.Chunks < 500 {
		t.Fatalf("the Blob is %d chunks; the pin wants hundreds", s.Chunks)
	}
	step("fork", 0, func() error { return db.Fork(ctx, "doc", "dev") })
	step("rename", 0, func() error { return db.RenameBranch(ctx, "doc", "dev", "feature") })
	step("remove", 0, func() error { return db.RemoveBranch(ctx, "doc", "feature") })
}

// TestDefaultOpenFsyncsOnlyToCompact: a store opened without MetaSync
// fsyncs its chunk log only inside a collection's compaction, between
// planning a segment and relocating its live records, and never fsyncs
// the journal's WAL. (The journal's snapshot swap fsyncs under every
// setting.) The power-loss script runs on it, collections and journal
// compactions included.
func TestDefaultOpenFsyncsOnlyToCompact(t *testing.T) {
	db, err := forkbase.OpenPath(t.TempDir(), forkbase.Options{SegmentSize: 512 << 10, SnapshotEvery: 8, GCThreshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	compacting, inCompaction := false, 0
	db.SetCrashHooksForTest(func(event string, seg int) {
		switch event {
		case "plan":
			compacting = true
		case "relocated":
			compacting = false
		case "synced", "dir-synced":
			if !compacting {
				t.Errorf("chunk log %s (seg %d) outside a compaction", event, seg)
			}
			inCompaction++
		}
	}, func(event string) {
		if event == "synced" {
			t.Error("journal WAL fsynced without MetaSync")
		}
	})
	for _, op := range powerLossScript(t, db) {
		compacting = false // a sweep whose last segment it kept fires no "relocated"
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	if inCompaction == 0 {
		t.Fatal("the script's compactions fsynced nothing")
	}
	if n, m := chunkLogFsyncs(db), journalFsyncs(db); n != 0 || m != 0 {
		t.Fatalf("%d chunk-log and %d journal fsyncs counted without MetaSync", n, m)
	}
}
