package specdb

// Unit suite for the commit records and the Batch transaction: record
// codec hostility, staging until Flush, batch read-your-writes and
// discard, concurrent batches, tail recovery on reopen (read-write and
// read-only), and ratio-triggered background compaction.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// record frames one commit; it panics on a commit too long for a record.
func record(seq, nextOrd uint64, ops ...op) []byte {
	b, err := appendCommit(nil, &commit{seq: seq, nextOrd: nextOrd, ops: ops})
	if err != nil {
		panic(err)
	}
	return b
}

func putOp(k, v string) op { return op{kind: opPut, key: []byte(k), val: []byte(v)} }
func delOp(k string) op    { return op{kind: opDelete, key: []byte(k)} }

func TestWALRecordRoundTrip(t *testing.T) {
	for _, c := range []*commit{
		{seq: 1, nextOrd: 2, ops: []op{putOp("k", "v")}},
		{seq: 7, nextOrd: 9, ops: []op{putOp("key", strings.Repeat("x", 4096)), putOp("empty", "")}},
		{seq: 8, nextOrd: 9, ops: []op{delOp("gone"), putOp("k", "v"), delOp("k")}},
		{seq: 9, nextOrd: 9}, // the empty commit a failed Flush leaves
	} {
		buf := record(c.seq, c.nextOrd, c.ops...)
		got, n, err := decodeCommit(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if got.seq != c.seq || got.nextOrd != c.nextOrd || len(got.ops) != len(c.ops) {
			t.Fatalf("round trip: %+v != %+v", got, c)
		}
		for i, o := range got.ops {
			if o.kind != c.ops[i].kind || !bytes.Equal(o.key, c.ops[i].key) || !bytes.Equal(o.val, c.ops[i].val) {
				t.Fatalf("op %d: %+v != %+v", i, o, c.ops[i])
			}
		}
	}
}

func TestWALRecordDecodeRejections(t *testing.T) {
	valid := record(3, 4, putOp("key", "val"), delOp("k"))
	// reseal recomputes the checksum after a body mutation, producing a
	// checksum-valid record with hostile content.
	reseal := func(mut func(body []byte)) []byte {
		buf := append([]byte(nil), valid...)
		body := buf[4 : len(buf)-8]
		mut(body)
		binary.LittleEndian.PutUint64(buf[len(buf)-8:], checksum(body))
		return buf
	}
	putKlen := bodyHdr + 1 // the put's klen field
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short prefix", valid[:3]},
		{"truncated body", valid[:len(valid)-9]},
		{"flipped checksum", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-1] ^= 0xff
			return b
		}()},
		{"flipped payload", func() []byte {
			b := append([]byte(nil), valid...)
			b[10] ^= 0x01
			return b
		}()},
		{"huge blen", func() []byte {
			b := append([]byte(nil), valid...)
			b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0x7f
			return b
		}()},
		{"blen under the body header", func() []byte {
			b := append([]byte(nil), valid...)
			b[0], b[1], b[2], b[3] = bodyHdr-1, 0, 0, 0
			return b
		}()},
		{"op count past body", reseal(func(body []byte) { body[16] = 0xff })},
		{"op count short of body", reseal(func(body []byte) { body[16] = 1 })},
		{"unknown op", reseal(func(body []byte) { body[bodyHdr] = 77 })},
		{"zero klen", reseal(func(body []byte) { binary.LittleEndian.PutUint32(body[putKlen:], 0) })},
		{"klen over MaxKeyLen", reseal(func(body []byte) { binary.LittleEndian.PutUint32(body[putKlen:], MaxKeyLen+1) })},
		{"klen past body", reseal(func(body []byte) { binary.LittleEndian.PutUint32(body[putKlen:], 40) })},
		{"vlen past body", reseal(func(body []byte) { binary.LittleEndian.PutUint32(body[putKlen+4+3:], 40) })},
		{"op count past ops", reseal(func(body []byte) { body[16] = 3 })},
	}
	for _, tc := range cases {
		c, n, err := decodeCommit(tc.buf)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if c != nil || n != 0 {
			t.Errorf("%s: rejected decode returned (%+v, %d)", tc.name, c, n)
		}
	}
}

// TestCommitTooLongForRecord: a Flush whose record body would not fit the
// length prefix fails with nothing written and no seq consumed.
func TestCommitTooLongForRecord(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "a", "1")
	size, seq := fileSize(t, st), st.Current().Seq()
	defer func(m uint64) { maxBody = m }(maxBody)
	maxBody = 64
	b := st.Batch()
	if err := b.put([]byte("big"), bytes.Repeat([]byte("v"), 64)); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err == nil || !strings.Contains(err.Error(), "over the 64-byte limit") {
		t.Fatalf("Flush of an oversized commit = %v", err)
	}
	if fileSize(t, st) != size || st.Current().Seq() != seq || st.Current().Len() != 1 {
		t.Fatalf("oversized commit touched the store: %d bytes, seq %d", fileSize(t, st), st.Current().Seq())
	}
	maxBody = bodyHdr
	if _, err := st.Compact(); err == nil || fileSize(t, st) != size {
		t.Fatalf("compacted into a record over the limit: %v", err)
	}
	maxBody = math.MaxUint32
	mustPut(t, st, "b", "2")
	if st.Current().Seq() != seq+1 {
		t.Fatalf("next commit took seq %d, want %d", st.Current().Seq(), seq+1)
	}
}

// TestBatchStagesUntilFlush: staged operations reach neither the file nor
// the published snapshot until Flush, which commits them as one snapshot
// with one sequence number.
func TestBatchStagesUntilFlush(t *testing.T) {
	st := tmpStore(t)
	seq0, size0 := st.Current().Seq(), fileSize(t, st)
	b := st.Batch()
	for i := 0; i < 3; i++ {
		if err := b.put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st.Current().Seq() != seq0 || st.Current().Len() != 0 {
		t.Fatal("staged records leaked into the committed snapshot")
	}
	if sz := fileSize(t, st); sz != size0 {
		t.Fatalf("staging wrote %d bytes to the file", sz-size0)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	sn := st.Current()
	if sn.Seq() != seq0+1 || sn.Len() != 3 {
		t.Fatalf("after flush: seq %d len %d, want seq %d len 3", sn.Seq(), sn.Len(), seq0+1)
	}
	ss := st.Stats()
	if ss.Seq != 1 || ss.FileBytes != fileSize(t, st) {
		t.Fatalf("stats = %+v", ss)
	}
	// The batch is empty again: a second Flush writes nothing.
	if err := b.Flush(); err != nil || st.Current().Seq() != seq0+1 || fileSize(t, st) != ss.FileBytes {
		t.Fatalf("flush of an emptied batch: %v, seq %d", err, st.Current().Seq())
	}
}

// TestBatchDiscard drops the staged operations without touching the file
// or the seq counter; committed records stay, and a later Flush commits
// only what was staged after the Discard.
func TestBatchDiscard(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "k0", "v", "k1", "v")
	committed, committedSeq := fileSize(t, st), st.Current().Seq()
	b := st.Batch()
	if err := b.put([]byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.delete([]byte("k0")); err != nil {
		t.Fatal(err)
	}
	if err := b.Discard(); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Len(); got != 2 {
		t.Fatalf("len = %d after discard, want the 2 committed keys", got)
	}
	if sz := fileSize(t, st); sz != committed {
		t.Fatalf("file holds %d bytes after discard, want the %d committed", sz, committed)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Current().Seq() != committedSeq || st.Current().Len() != 2 {
		t.Fatalf("flush after discard committed phantoms: seq %d len %d", st.Current().Seq(), st.Current().Len())
	}
	// The seq counter did not move: the next commit takes the next seq.
	if err := b.put([]byte("k9"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := st.Current().Seq(); got != committedSeq+1 {
		t.Fatalf("seq after discard and commit = %d, want %d", got, committedSeq+1)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchFileOps counts the physical operations on the crash harness's
// recording file: a discarded batch makes no write, truncate or sync, and
// a flushed one makes exactly one write of exactly one record and one
// sync, however many operations it carries.
func TestBatchFileOps(t *testing.T) {
	rec := &recordingFile{}
	st, err := initFile(rec, "ops.mem")
	if err != nil {
		t.Fatal(err)
	}
	stage := func(b *Batch) {
		if _, _, err := b.ImportSpecs(testCorpus()); err != nil {
			t.Fatal(err)
		}
		if err := b.put([]byte("raw"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		b.DeleteSpec(testCorpus()[0].Key())
	}
	n := len(rec.log)
	b := st.Batch()
	stage(b)
	if err := b.Discard(); err != nil {
		t.Fatal(err)
	}
	if len(rec.log) != n {
		t.Fatalf("a discarded batch made %d file operations: %+v", len(rec.log)-n, rec.log[n:])
	}
	stage(b)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	ops := rec.log[n:]
	if len(ops) != 2 || ops[0].trunc || ops[0].sync || !ops[1].sync {
		t.Fatalf("a flushed batch made %d file operations, want one write then one sync: %+v", len(ops), ops)
	}
	c, n, err := decodeCommit(ops[0].data)
	if err != nil || n != len(ops[0].data) || len(c.ops) != len(testCorpus())+2 {
		t.Fatalf("the write is not one record of %d operations: %v, %d of %d bytes", len(testCorpus())+2, err, n, len(ops[0].data))
	}
}

// TestConcurrentBatches stages and flushes two batches at once (run it
// under -race). Each commits exactly its own operations. A spec both
// batches replace keeps its ordinal, and a spec both create takes the
// ordinal of whichever batch flushes first, the other replacing it.
func TestConcurrentBatches(t *testing.T) {
	for round := 0; round < 20; round++ {
		st := tmpStore(t)
		corpus := importCorpus(t, st)
		seq0, ord0 := st.Current().Seq(), st.Stats().NextOrd
		shared := mkSpec("ops.shared", "kzalloc", true, 77, "p")
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				b := st.Batch()
				edited := *corpus[0]
				edited.OriginPatch = fmt.Sprintf("batch-%d", w)
				both := *shared
				both.OriginPatch = fmt.Sprintf("batch-%d", w)
				for _, sp := range []*spec.Spec{&edited, &both, mkSpec(fmt.Sprintf("ops.own%d", w), "kmalloc", true, int64(w), "p")} {
					if _, err := b.UpsertSpec(sp); err != nil {
						errs[w] = err
						return
					}
				}
				errs[w] = b.Flush()
			}(w)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		sn := st.Current()
		if sn.Seq() != seq0+2 || st.Stats().NextOrd != ord0+3 {
			t.Fatalf("round %d: seq %d nextOrd %d, want %d and %d (1 commit and 1 new ordinal per batch, 1 shared)",
				round, sn.Seq(), st.Stats().NextOrd, seq0+2, ord0+3)
		}
		ordOf := func(key string) (uint64, string) {
			t.Helper()
			val, ok := sn.Get([]byte(key))
			if !ok {
				t.Fatalf("round %d: %q missing", round, key)
			}
			ord, sp, err := decodeSpec(val)
			if err != nil {
				t.Fatal(err)
			}
			return ord, sp.OriginPatch
		}
		if ord, _ := ordOf(corpus[0].Key()); ord != 1 {
			t.Fatalf("round %d: replaced spec moved to ordinal %d, want 1", round, ord)
		}
		// The batch that flushed last wrote the shared spec's final value;
		// the first one created it, at the first ordinal after the corpus.
		_, last := ordOf(corpus[0].Key())
		sharedOrd, sharedPatch := ordOf(shared.Key())
		if sharedPatch != last {
			t.Fatalf("round %d: shared spec from %s, edited spec from %s: not one flush order", round, sharedPatch, last)
		}
		if sharedOrd != ord0 {
			t.Fatalf("round %d: shared spec at ordinal %d, want %d (created by the first flush)", round, sharedOrd, ord0)
		}
		// Each batch's own new spec took the next ordinal in flush order,
		// and the first commit record holds exactly the first batch's
		// three operations.
		h, commits, _, err := load(st.f, st.Path())
		if err != nil {
			t.Fatal(err)
		}
		first := commits[len(commits)-2]
		if first.seq != seq0+1 || len(first.ops) != 3 {
			t.Fatalf("round %d: first commit at seq %d with %d operations, want seq %d with 3", round, first.seq, len(first.ops), seq0+1)
		}
		mid := dump(t, replay(h, commits[:len(commits)-1]))
		for w := 0; w < 2; w++ {
			own := mkSpec(fmt.Sprintf("ops.own%d", w), "kmalloc", true, int64(w), "p").Key()
			want, inFirst := ord0+1, fmt.Sprintf("batch-%d", w) != last
			if !inFirst {
				want = ord0 + 2
			}
			if ord, _ := ordOf(own); ord != want {
				t.Fatalf("round %d: batch %d's own spec at ordinal %d, want %d", round, w, ord, want)
			}
			if _, ok := mid[own]; ok != inFirst {
				t.Fatalf("round %d: batch %d's own spec in the first commit = %v, want %v", round, w, ok, inFirst)
			}
		}
		if len(mid) != len(corpus)+2 || strings.Contains(mid[corpus[0].Key()]+mid[shared.Key()], last) {
			t.Fatalf("round %d: the first commit holds %d keys or the last batch's edits, want the first batch's alone", round, len(mid))
		}
		if _, err := st.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// appendRaw appends pre-encoded bytes to a store file out of band —
// simulating records a crashed writer left behind.
func appendRaw(t *testing.T, path string, chunks ...[]byte) {
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
// one-commit tail (put b, delete a, ending at NextOrd 5) plus any extra
// bytes. Returns the store path.
func crashTail(t *testing.T, extra ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1")
	seq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, append([][]byte{record(seq+1, 5, putOp("b", "2"), delOp("a"))}, extra...)...)
	return path
}

// TestWALTailReplayOnOpen: a read-write reopen replays the tail record
// like any other, restores ordinal allocation from it, and leaves a file
// that verifies.
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
	if ss.Seq != 2 {
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
	torn := record(99, 9, putOp("torn", "x"), putOp("b", "3"))
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

// TestSeqRegressionIsCorrupt: a checksum-valid record whose seq does not
// increase cannot come from a crash, so both opens fail with ErrCorrupt
// instead of truncating it.
func TestSeqRegressionIsCorrupt(t *testing.T) {
	path := crashTail(t, record(1, 9, putOp("old", "x")))
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
	b := st.Batch()
	if err := b.put([]byte("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only flush = %v, want ErrReadOnly", err)
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
	seq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path,
		record(seq+1, 9, putOp("a", "ov-a"), putOp("c", "ov-c")),
		record(seq+2, 9, putOp("d", "ov-d"), delOp("f"), putOp("z", "ov-z")),
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
// through the batch's own staged operations — a staged upsert keeps its
// ordinal on re-upsert, a staged insert dedups an import, and a staged
// delete hides the key.
func TestBatchSpecReadYourWrites(t *testing.T) {
	st := tmpStore(t)
	b := st.Batch()
	sp := mkSpec("ops.wal", "kmalloc", true, 1, "p1")
	created, err := b.UpsertSpec(sp)
	if err != nil || !created {
		t.Fatalf("first upsert: created=%v err=%v", created, err)
	}
	created, err = b.UpsertSpec(sp)
	if err != nil || created {
		t.Fatalf("staged re-upsert: created=%v err=%v, want replace", created, err)
	}
	added, skipped, err := b.ImportSpecs([]*spec.Spec{sp, mkSpec("ops.wal2", "kfree", true, 2, "p1")})
	if err != nil || added != 1 || skipped != 1 {
		t.Fatalf("import over staged: added=%d skipped=%d err=%v", added, skipped, err)
	}
	if !b.DeleteSpec(sp.Key()) {
		t.Fatal("staged delete missed")
	}
	if b.DeleteSpec(sp.Key()) {
		t.Fatal("double delete hit, want miss")
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
	// Ordinal 2 was allocated to ops.wal2 while ops.wal was staged.
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
	created, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	created.Close()
	st, err := OpenOptions(path, Options{CompactThreshold: 0.5})
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

// TestCompactLeavesBatchStaged: Compact rewrites the committed state
// only; operations staged in a batch stay staged and commit at its Flush.
func TestCompactLeavesBatchStaged(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "a", "1")
	b := st.Batch()
	if err := b.put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cs, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Keys != 1 {
		t.Fatalf("compacted %d keys, want the 1 committed", cs.Keys)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := dump(t, st.Current()); len(got) != 2 || got["k"] != "v" {
		t.Fatalf("after flush: %v", got)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenWithEmptyWALLeavesFileUntouched guards the no-op-reopen
// contract the model suite pins: reopening and closing a cleanly closed
// store writes nothing.
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
