package specdb

// Unit suite for the record log and group commit: record codec hostility,
// commit policy triggers (records / bytes / interval), batch
// read-your-writes and discard, tail recovery on reopen (read-write and
// read-only), and ratio-triggered background compaction.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"seal/internal/spec"
)

// fileSize reads the store file's on-disk size.
func fileSize(t *testing.T, st *Store) int64 {
	t.Helper()
	fi, err := os.Stat(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestWALRecordRoundTrip(t *testing.T) {
	for _, rec := range []*WALRecord{
		{Op: WALOpPut, Seq: 1, NextOrd: 2, Key: []byte("k"), Val: []byte("v")},
		{Op: WALOpPut, Seq: 7, NextOrd: 9, Key: []byte("key"), Val: bytes.Repeat([]byte("x"), 4096)},
		{Op: WALOpDelete, Seq: 8, NextOrd: 9, Key: []byte("gone")},
	} {
		buf := EncodeWALRecord(rec)
		got, n, err := DecodeWALRecord(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if got.Op != rec.Op || got.Seq != rec.Seq || got.NextOrd != rec.NextOrd ||
			!bytes.Equal(got.Key, rec.Key) || !bytes.Equal(got.Val, rec.Val) {
			t.Fatalf("round trip: %+v != %+v", got, rec)
		}
	}
}

func TestWALRecordDecodeRejections(t *testing.T) {
	valid := EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 3, NextOrd: 4, Key: []byte("key"), Val: []byte("val")})
	// reseal recomputes the checksum after a body mutation, producing a
	// structurally intact record with hostile content.
	reseal := func(mut func(body []byte)) []byte {
		buf := append([]byte(nil), valid...)
		body := buf[4 : len(buf)-8]
		mut(body)
		sum := checksum(body)
		for i := 0; i < 8; i++ {
			buf[len(buf)-8+i] = byte(sum >> (8 * i))
		}
		return buf
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short prefix", valid[:3], ErrCorrupt},
		{"truncated body", valid[:len(valid)-9], ErrCorrupt},
		{"flipped checksum", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0xff
			return b
		}(), ErrCorrupt},
		{"flipped payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[10] ^= 0x01
			return b
		}(), ErrCorrupt},
		{"huge blen", func() []byte {
			b := append([]byte(nil), valid...)
			b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
			return b
		}(), ErrCorrupt},
		{"version skew", reseal(func(body []byte) { body[0] = WALVersion + 9 }), ErrVersion},
		{"unknown op", reseal(func(body []byte) { body[1] = 77 }), ErrCorrupt},
		{"zero klen", reseal(func(body []byte) { body[18], body[19], body[20], body[21] = 0, 0, 0, 0 }), ErrCorrupt},
		{"klen past body", reseal(func(body []byte) { body[18], body[19], body[20], body[21] = 0xff, 0xff, 0, 0 }), ErrCorrupt},
		{"delete with value", func() []byte {
			return EncodeWALRecord(&WALRecord{Op: WALOpDelete, Seq: 1, NextOrd: 1, Key: []byte("k"), Val: []byte("v")})
		}(), ErrCorrupt},
	}
	for _, tc := range cases {
		rec, n, err := DecodeWALRecord(tc.buf)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if rec != nil || n != 0 {
			t.Errorf("%s: rejected decode returned (%+v, %d)", tc.name, rec, n)
		}
	}
}

// TestBatchFoldOnRecordCount pins the N-records policy: the batch is
// appended to the file at once but stays pending (invisible to Current)
// until the count trips, then commits as one snapshot.
func TestBatchFoldOnRecordCount(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 3, Bytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seq0 := st.Current().Seq()
	size0 := fileSize(t, st)

	b := st.Batch()
	for i := 0; i < 2; i++ {
		if err := b.put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if st.Current().Seq() != seq0 || st.Current().Len() != 0 {
		t.Fatal("pending records leaked into the committed snapshot")
	}
	if sz := fileSize(t, st); sz <= size0 {
		t.Fatal("pending records not in the file")
	}

	// The third record trips the policy: one commit.
	if err := b.put([]byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("pending after fold = %d, want 0", got)
	}
	sn := st.Current()
	if sn.Seq() != seq0+3 || sn.Len() != 3 {
		t.Fatalf("after commit: seq %d len %d, want seq %d len 3", sn.Seq(), sn.Len(), seq0+3)
	}
	ss := st.Stats()
	if ss.Seq != 3 || ss.Pending != 0 || ss.FileBytes != fileSize(t, st) {
		t.Fatalf("stats = %+v", ss)
	}
}

// TestBatchFoldOnBytes pins the B-bytes policy.
func TestBatchFoldOnBytes(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 1 << 20, Bytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := st.Batch()
	if err := b.put([]byte("small"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 1 {
		t.Fatal("small record folded early")
	}
	if err := b.put([]byte("big"), bytes.Repeat([]byte("x"), 512)); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 0 {
		t.Fatal("byte policy did not fold")
	}
	if got := st.Current().Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
}

// TestBatchFoldOnInterval pins the T-interval policy: a lone record
// folds on its own once the timer fires.
func TestBatchFoldOnInterval(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 1 << 20, Bytes: 1 << 30, Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Batch().put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Current().Len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("interval fold never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchDiscard drops the uncommitted tail — truncating the file back
// to the last commit — but keeps committed records.
func TestBatchDiscard(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 2, Bytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := st.Batch()
	var committed int64
	var committedSeq uint64
	for i := 0; i < 3; i++ { // first two commit, third stays pending
		if err := b.put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			committed, committedSeq = fileSize(t, st), st.Current().Seq()
		}
	}
	if b.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", b.Pending())
	}
	if err := b.Discard(); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 0 {
		t.Fatal("discard left records pending")
	}
	if got := st.Current().Len(); got != 2 {
		t.Fatalf("len = %d after discard, want the 2 folded keys", got)
	}
	// The discarded record is gone from the file; in its place is the seq
	// marker that keeps its seq unreachable after a restart.
	marker := int64(len(EncodeWALRecord(&WALRecord{Op: WALOpDelete, Key: []byte(seqMarkKey)})))
	if sz := fileSize(t, st); sz != committed+marker {
		t.Fatalf("file holds %d bytes after discard, want the %d committed plus the %d-byte seq marker", sz, committed, marker)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Len(); got != 2 {
		t.Fatalf("flush after discard committed phantoms: len %d", got)
	}
	// Appends resume right after the marker: the discarded record's seq is
	// never handed out again.
	if got := st.Current().Seq(); got != committedSeq+2 {
		t.Fatalf("seq after discard = %d, want the marker's %d (seq %d was discarded)", got, committedSeq+2, committedSeq+1)
	}
	if err := b.put([]byte("k9"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Seq(); got != committedSeq+3 {
		t.Fatalf("seq after discard and append = %d, want %d (seq %d was discarded)", got, committedSeq+3, committedSeq+1)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// appendRawWAL appends pre-encoded bytes to a store file out of band —
// simulating records a crashed writer left behind.
func appendRawWAL(t *testing.T, path string, chunks ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			t.Fatal(err)
		}
	}
}

// crashTail builds a store holding {a:1}, closes it, and appends a
// two-record tail (put b, delete a, ending at NextOrd 5) plus any extra
// bytes. Returns the store path.
func crashTail(t *testing.T, extra ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1")
	walSeq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	chunks := [][]byte{
		EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: walSeq + 1, NextOrd: 5, Key: []byte("b"), Val: []byte("2")}),
		EncodeWALRecord(&WALRecord{Op: WALOpDelete, Seq: walSeq + 2, NextOrd: 5, Key: []byte("a")}),
	}
	appendRawWAL(t, path, append(chunks, extra...)...)
	return path
}

// TestWALTailReplayOnOpen: a read-write reopen replays the tail records
// like any other, restores ordinal allocation from them, and leaves a
// file that verifies.
func TestWALTailReplayOnOpen(t *testing.T) {
	path := crashTail(t)
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := dump(t, st.Current())
	if len(got) != 1 || got["b"] != "2" {
		t.Fatalf("recovered state = %v, want {b:2}", got)
	}
	ss := st.Stats()
	if ss.NextOrd != 5 {
		t.Fatalf("recovered NextOrd = %d, want 5 (from the tail)", ss.NextOrd)
	}
	if ss.Pending != 0 || ss.Seq != 3 {
		t.Fatalf("stats after recovery = %+v", ss)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWALTornTailIgnored: garbage past the last valid record is a torn
// append — recovery keeps the valid prefix and a read-write open
// truncates the rest.
func TestWALTornTailIgnored(t *testing.T) {
	torn := EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 99, NextOrd: 9, Key: []byte("torn"), Val: []byte("x")})
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"half record", torn[:len(torn)/2]},
		{"flipped checksum", func() []byte {
			b := append([]byte(nil), torn...)
			b[len(b)-3] ^= 0x40
			return b
		}()},
		{"garbage", []byte("not a wal record at all")},
	} {
		path := crashTail(t, tc.tail)
		st, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := dump(t, st.Current())
		if len(got) != 1 || got["b"] != "2" {
			t.Errorf("%s: recovered %v, want {b:2}", tc.name, got)
		}
		if _, err := st.Verify(); err != nil {
			t.Errorf("%s: torn tail not truncated: %v", tc.name, err)
		}
		st.Close()
	}
}

// TestWALVersionSkewRefused: a checksum-valid record from a foreign WAL
// format fails the open with ErrVersion — never skipped.
func TestWALVersionSkewRefused(t *testing.T) {
	skew := EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 99, NextOrd: 9, Key: []byte("future"), Val: []byte("x")})
	body := skew[4 : len(skew)-8]
	body[0] = WALVersion + 3
	sum := checksum(body)
	for i := 0; i < 8; i++ {
		skew[len(skew)-8+i] = byte(sum >> (8 * i))
	}
	path := crashTail(t, skew)
	if _, err := Open(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("open = %v, want ErrVersion", err)
	}
	if _, err := OpenReadOnly(path); !errors.Is(err, ErrVersion) {
		t.Fatalf("read-only open = %v, want ErrVersion", err)
	}
}

// TestSeqRegressionIsCorrupt: a checksum-valid record whose seq does not
// increase cannot come from a crash, so both opens fail with ErrCorrupt
// instead of truncating it.
func TestSeqRegressionIsCorrupt(t *testing.T) {
	path := crashTail(t, EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 1, NextOrd: 9, Key: []byte("old"), Val: []byte("x")}))
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
	if _, err := OpenReadOnly(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only open = %v, want ErrCorrupt", err)
	}
}

// TestWALOverlayReadOnly: a read-only open sees every complete record,
// tail included — Get, Len and Iterate all see it — and never writes the
// file, not even to trim a torn tail.
func TestWALOverlayReadOnly(t *testing.T) {
	path := crashTail(t, []byte("torn"))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sn := st.Current()
	if sn.Len() != 1 {
		t.Fatalf("overlaid Len = %d, want 1", sn.Len())
	}
	if v, ok := sn.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, ok)
	}
	if _, ok := sn.Get([]byte("a")); ok {
		t.Fatal("tombstoned key a still visible")
	}
	got := dump(t, sn)
	if len(got) != 1 || got["b"] != "2" {
		t.Fatalf("overlaid iterate = %v, want {b:2}", got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("read-only open rewrote the store file")
	}

	// Writes are refused as ever.
	if err := st.Batch().put([]byte("x"), []byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only put = %v, want ErrReadOnly", err)
	}
}

// TestWALOverlayIterateFrom exercises iteration bounds over a read-only
// view whose tail records land before, between, on, and past the keys
// committed ahead of them.
func TestWALOverlayIterateFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "b", "tree-b", "d", "tree-d", "f", "tree-f")
	walSeq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawWAL(t, path,
		EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: walSeq + 1, NextOrd: 9, Key: []byte("a"), Val: []byte("ov-a")}),
		EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: walSeq + 2, NextOrd: 9, Key: []byte("c"), Val: []byte("ov-c")}),
		EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: walSeq + 3, NextOrd: 9, Key: []byte("d"), Val: []byte("ov-d")}),
		EncodeWALRecord(&WALRecord{Op: WALOpDelete, Seq: walSeq + 4, NextOrd: 9, Key: []byte("f")}),
		EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: walSeq + 5, NextOrd: 9, Key: []byte("z"), Val: []byte("ov-z")}),
	)
	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	sn := ro.Current()
	want := "a=ov-a b=tree-b c=ov-c d=ov-d z=ov-z"
	var parts []string
	if err := sn.Iterate(func(k, v []byte) (bool, error) {
		parts = append(parts, fmt.Sprintf("%s=%s", k, v))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(parts, " "); got != want {
		t.Fatalf("merged iterate = %q, want %q", got, want)
	}
	if sn.Len() != 5 {
		t.Fatalf("merged Len = %d, want 5", sn.Len())
	}
	parts = nil
	if err := sn.IterateFrom([]byte("c"), func(k, v []byte) (bool, error) {
		parts = append(parts, string(k))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(parts, " "); got != "c d z" {
		t.Fatalf("IterateFrom(c) = %q, want \"c d z\"", got)
	}
	// Early stop mid-overlay.
	parts = nil
	if err := sn.Iterate(func(k, v []byte) (bool, error) {
		parts = append(parts, string(k))
		return len(parts) < 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(parts, " "); got != "a b" {
		t.Fatalf("early stop walked %q, want \"a b\"", got)
	}
}

// TestBatchSpecReadYourWrites: spec-level batch ops resolve keys
// through the pending batch — a pending upsert keeps its ordinal on
// re-upsert, a pending insert dedups an import, and a pending delete
// hides the key.
func TestBatchSpecReadYourWrites(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 1 << 20, Bytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := st.Batch()
	sp := mkSpec("ops.wal", "kmalloc", true, 1, "p1")
	created, err := b.UpsertSpec(sp)
	if err != nil || !created {
		t.Fatalf("first upsert: created=%v err=%v", created, err)
	}
	created, err = b.UpsertSpec(sp)
	if err != nil || created {
		t.Fatalf("pending re-upsert: created=%v err=%v, want replace", created, err)
	}
	added, skipped, err := b.ImportSpecs([]*spec.Spec{sp, mkSpec("ops.wal2", "kfree", true, 2, "p1")})
	if err != nil || added != 1 || skipped != 1 {
		t.Fatalf("import over pending: added=%d skipped=%d err=%v", added, skipped, err)
	}
	ok, err := b.DeleteSpec(sp.Key())
	if err != nil || !ok {
		t.Fatalf("pending delete: %v %v", ok, err)
	}
	ok, err = b.DeleteSpec(sp.Key())
	if err != nil || ok {
		t.Fatalf("double delete: %v %v, want miss", ok, err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	specs, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Key() != "iface:ops.wal2 | "+specs[0].Constraint.String() {
		keys := specKeys(specs)
		t.Fatalf("flushed corpus = %v", keys)
	}
	// Ordinal 2 was allocated to ops.wal2 while ops.wal was pending.
	if st.Stats().NextOrd != 3 {
		t.Fatalf("NextOrd = %d, want 3", st.Stats().NextOrd)
	}
}

// TestDeadPageRatioAndAutoCompaction: rewriting one key over and over
// supersedes its records; a store opened with CompactThreshold commits,
// notices the dead ratio, and compacts in the background while a pinned
// pre-compaction snapshot stays readable.
func TestDeadPageRatioAndAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := CreateOptions(path, Options{
		Commit:           CommitPolicy{Records: 4, Bytes: 1 << 30},
		CompactThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := st.Batch()
	if err := b.put([]byte("stable"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	pinned := st.Current()
	pinnedDump := dump(t, pinned)

	for i := 0; i < 64; i++ {
		if err := b.put([]byte("churn"), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran; stats %+v", st.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.wg.Wait() // settle before measuring
	ss := st.Stats()
	if ss.DeadPageRatio >= 0.5 {
		t.Fatalf("ratio %.2f still at threshold after compaction", ss.DeadPageRatio)
	}
	// The pre-compaction snapshot never reads the file.
	if got := dump(t, pinned); got["stable"] != pinnedDump["stable"] {
		t.Fatalf("pinned snapshot changed: %v", got)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	got := dump(t, st.Current())
	if got["stable"] != "v" || len(got) != 2 {
		t.Fatalf("post-compaction state = %v", got)
	}
}

// TestManualCompactFoldsPending: Compact on a store with a pending
// batch captures the batch, not just the last fold.
func TestManualCompactFoldsPending(t *testing.T) {
	st, err := CreateOptions(filepath.Join(t.TempDir(), "s.db"), Options{
		Commit: CommitPolicy{Records: 1 << 20, Bytes: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := st.Batch()
	if err := b.put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cs, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Keys != 1 || b.Pending() != 0 {
		t.Fatalf("compacted %d keys with %d pending, want the pending record committed first", cs.Keys, b.Pending())
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenWithEmptyWALLeavesFileUntouched guards the no-op-reopen
// contract the model suite pins: reopening and closing a cleanly closed
// store, with nothing pending, writes nothing.
func TestReopenWithEmptyWALLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("reopen of a cleanly closed store rewrote the file")
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Current().Seq() != seq {
		t.Fatalf("reopen advanced seq %d -> %d", seq, st.Current().Seq())
	}
}
