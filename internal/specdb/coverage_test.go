package specdb

// Edge-path suite: large stores drained to empty and refilled, rejection
// of hostile headers, write-time I/O failures, and the remaining
// spec-layer error branches. These paths are exactly where storage
// engines rot, so the package holds a 90% coverage floor in CI.

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/spec"
)

// TestDeepTreeSplitAndDrain (named for the paged format's multi-level
// tree) writes 400 page-filling keys in scrambled order, then deletes
// every key in scrambled batches, verifying after each: the store drains
// to empty and accepts new keys again.
func TestDeepTreeSplitAndDrain(t *testing.T) {
	st := tmpStore(t)
	const n = 400
	pad := strings.Repeat("k", 700)
	keyAt := func(i int) string { return fmt.Sprintf("%s-%05d", pad, i) }

	var kv []string
	for i := 0; i < n; i++ {
		kv = append(kv, keyAt((i*311)%n), fmt.Sprintf("v%d", i))
	}
	mustPut(t, st, kv...)
	vs, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if vs.Keys != n || vs.Records != n {
		t.Fatalf("verify saw %d keys in %d records, want %d", vs.Keys, vs.Records, n)
	}

	rng := rand.New(rand.NewSource(5))
	order := rng.Perm(n)
	for batch := 0; batch < n; batch += 37 {
		var keys []string
		for _, i := range order[batch:min(batch+37, n)] {
			keys = append(keys, keyAt(i))
		}
		mustDelete(t, st, keys...)
		if _, err := st.Verify(); err != nil {
			t.Fatalf("verify after batch %d: %v", batch, err)
		}
	}
	if got := st.Current().Len(); got != 0 {
		t.Fatalf("drained store still holds %d keys", got)
	}
	if v, ok := st.Current().Get([]byte(keyAt(3))); ok {
		t.Fatalf("Get on drained store = %q", v)
	}
	if r := st.Stats().DeadPageRatio; r != 1 {
		t.Fatalf("dead ratio of a drained store = %.2f, want 1", r)
	}
	// And the drained store accepts new keys again.
	mustPut(t, st, "fresh", "start")
	if got := st.Current().Len(); got != 1 {
		t.Fatalf("refill Len = %d", got)
	}
}

// TestDeleteMissInDeepTree: deleting a spec key that sorts between
// stored keys but is absent reports a miss and writes nothing.
func TestDeleteMissInDeepTree(t *testing.T) {
	st := tmpStore(t)
	var specs []*spec.Spec
	for i := 0; i < 40; i++ {
		specs = append(specs, mkSpec(fmt.Sprintf("ops.deep%03d", i*2), "kmalloc", true, int64(i), "p"))
	}
	if _, _, err := st.ImportSpecs(specs); err != nil {
		t.Fatal(err)
	}
	seq, size := st.Current().Seq(), fileSize(t, st)
	miss := mkSpec("ops.deep007", "kmalloc", true, 7, "p")
	if ok, err := st.DeleteSpec(miss.Key()); ok || err != nil {
		t.Fatalf("phantom delete: %v %v", ok, err)
	}
	if st.Current().Seq() != seq || fileSize(t, st) != size {
		t.Fatal("a missed delete wrote a record")
	}
}

// TestOpenRejectsHostileHeaders covers each header rejection with its
// error class.
func TestOpenRejectsHostileHeaders(t *testing.T) {
	good := encodeHeader(header{baseSeq: 3, nextOrd: 9})
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x01
		return b
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want error
	}{
		{"empty", nil, ErrNotStore},
		{"short header", good[:headerLen-1], ErrNotStore},
		{"bad magic", flip(0), ErrNotStore},
		{"flipped seq", flip(14), ErrCorrupt},
		{"flipped checksum", flip(headerLen - 1), ErrCorrupt},
	} {
		if _, err := openFile(&memFile{buf: tc.img}, tc.name, true, Options{}); !errors.Is(err, tc.want) {
			t.Errorf("%s: open = %v, want %v", tc.name, err, tc.want)
		}
	}
	st, err := openFile(&memFile{buf: good}, "good", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Current().Seq() != 3 || st.Stats().NextOrd != 9 {
		t.Fatalf("header fields not restored: %+v", st.Stats())
	}
}

// failFile injects WriteAt, Sync and Truncate failures, to drive the
// commit error paths.
type failFile struct {
	*memFile
	failWrites int // fail this many upcoming writes
	failSyncs  int // fail this many upcoming syncs
	failTrunc  bool
}

var errInjected = errors.New("injected I/O failure")

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	if f.failWrites > 0 {
		f.failWrites--
		return 0, errInjected
	}
	return f.memFile.WriteAt(p, off)
}

func (f *failFile) Sync() error {
	if f.failSyncs > 0 {
		f.failSyncs--
		return errInjected
	}
	return f.memFile.Sync()
}

func (f *failFile) Truncate(n int64) error {
	if f.failTrunc {
		return errInjected
	}
	return f.memFile.Truncate(n)
}

func TestCommitSurfacesWriteErrors(t *testing.T) {
	ff := &failFile{memFile: &memFile{}}
	st, err := initFile(ff, "fail.mem")
	if err != nil {
		t.Fatal(err)
	}
	b := st.Batch()
	flush := func(key, val string) error {
		t.Helper()
		if err := b.put([]byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		return b.Flush()
	}
	marker := int64(len(EncodeWALRecord(&WALRecord{Op: WALOpDelete, Key: []byte(seqMarkKey)})))

	// A failed write publishes nothing. The seq marker's write fails too,
	// so the file keeps only its header, but this process's seq counter
	// has moved past both (seqs 1 and 2).
	ff.failWrites = 2
	if err := flush("k", "v"); !errors.Is(err, errInjected) {
		t.Fatalf("Flush = %v, want injected failure", err)
	}
	if st.Current().Seq() != 0 || len(ff.buf) != headerLen {
		t.Fatalf("failed write published seq %d, left %d bytes", st.Current().Seq(), len(ff.buf))
	}

	// A failed sync: the written record (seq 3) is cut away and a durable
	// seq marker (seq 4) commits in its place, changing no key.
	ff.failSyncs = 1
	if err := flush("k", "v"); !errors.Is(err, errInjected) {
		t.Fatalf("Flush = %v, want injected failure", err)
	}
	if st.Current().Seq() != 4 || st.Current().Len() != 0 || int64(len(ff.buf)) != headerLen+marker {
		t.Fatalf("after a failed sync: seq %d, %d keys, %d bytes; want the seq marker alone", st.Current().Seq(), st.Current().Len(), len(ff.buf))
	}
	if err := flush("k", "v"); err != nil || st.Current().Seq() != 5 {
		t.Fatalf("retried commit: %v, seq %d", err, st.Current().Seq())
	}

	// A failed truncate leaves the failed record in the file and writes no
	// marker; the next commit overwrites its bytes, so a reopen sees only
	// committed records.
	ff.failSyncs, ff.failTrunc = 1, true
	if err := flush("gone", "long discarded value"); !errors.Is(err, errInjected) {
		t.Fatalf("Flush = %v, want injected failure", err)
	}
	ff.failTrunc = false
	if err := flush("x", ""); err != nil {
		t.Fatal(err)
	}
	re, err := openFile(&memFile{buf: ff.buf}, "reopen", true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, re.Current()); len(got) != 2 || got["k"] != "v" || got["x"] != "" || re.Current().Seq() != 7 {
		t.Fatalf("reopened after failed truncate: %v at seq %d", got, re.Current().Seq())
	}
}

func TestCreateRefusesExistingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(path); err == nil {
		t.Fatal("Create over an existing file succeeded")
	}
}

func TestCorruptSpecRecordSurfaces(t *testing.T) {
	st := tmpStore(t)
	importCorpus(t, st)
	// Smuggle garbage under a spec-layer key shape.
	mustPut(t, st, "api:zzz | ∄: junk", "{not json")
	if _, err := st.Current().Specs(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Specs over garbage record = %v, want ErrCorrupt", err)
	}
	if _, _, err := st.Current().SpecByKey("api:zzz | ∄: junk"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SpecByKey over garbage record = %v", err)
	}
	// A record holding zero specs is equally corrupt.
	mustPut(t, st, "api:zzz | ∄: junk", `{"ord":1,"db":{"specs":[]}}`)
	if _, _, err := st.Current().SpecByKey("api:zzz | ∄: junk"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SpecByKey over empty record = %v", err)
	}
}

func TestImportRejectsOversizedKey(t *testing.T) {
	st := tmpStore(t)
	bad := mkSpec(strings.Repeat("very.long.interface.", 50), "api", true, 1, "p")
	if _, _, err := st.ImportSpecs([]*spec.Spec{bad}); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("ImportSpecs(oversized key) = %v, want ErrKeyTooLong", err)
	}
	if _, err := st.UpsertSpec(bad); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("UpsertSpec(oversized key) = %v, want ErrKeyTooLong", err)
	}
}

// TestQueryMatchRemainingBranches drives each single-field rejection.
func TestQueryMatchRemainingBranches(t *testing.T) {
	sp := mkSpec("ops.prepare", "kmalloc", true, 1, "patch-1")
	tr := true
	fa := false
	cases := []struct {
		q    Query
		want bool
	}{
		{Query{}, true},
		{Query{Scope: "iface:ops.prepare"}, true},
		{Query{Scope: "api:kmalloc"}, false},
		{Query{Iface: "ops.finish"}, false},
		{Query{API: "kfree"}, false},
		{Query{Origin: "P+"}, false},
		{Query{OriginPatch: "patch-2"}, false},
		{Query{Forbidden: &tr}, true},
		{Query{Forbidden: &fa}, false},
	}
	for i, tc := range cases {
		if got := tc.q.Match(sp); got != tc.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, tc.want)
		}
	}
}

func TestStorePathAccessor(t *testing.T) {
	st := tmpStore(t)
	if st.Path() == "" || !strings.HasSuffix(st.Path(), "specs.db") {
		t.Fatalf("Path = %q", st.Path())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
	b := st.Batch()
	if err := b.put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err == nil {
		t.Fatal("Flush on closed store succeeded")
	}
	if _, err := st.Compact(); err == nil {
		t.Fatal("Compact on closed store succeeded")
	}
}
