package specdb

// Crash-consistency harness. A recording file logs every physical
// operation the store issues on its one file — the one write of each
// Flush's records, any truncation, and the syncs that commit — across a
// multi-commit run. Beside the log it keeps an independent oracle: the
// records the file holds after each operation, each with the state a plain
// map reaches by applying the records up to it. The harness then rebuilds
// the file image at every operation prefix (a crash between any two
// operations), plus torn and scribbled variants of the next write, every
// byte prefix of the final image, and single-bit flips, and asserts what
// recovery yields: exactly the replay of a prefix of the records — all of
// them when every write in the prefix completed, so at least the last
// synced commit, and the ones wholly inside a torn write — or, for damage
// ahead of the final record, a clean ErrCorrupt; never a panic, never data
// that was not written.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"seal/internal/spec"
)

// memFile is an in-memory file for simulated crash images.
type memFile struct{ buf []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	if int64(len(m.buf)) < end {
		grown := make([]byte, end)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func (m *memFile) Sync() error { return nil }
func (m *memFile) Truncate(n int64) error {
	if n < int64(len(m.buf)) {
		m.buf = m.buf[:n]
	}
	return nil
}
func (m *memFile) Close() error         { return nil }
func (m *memFile) Size() (int64, error) { return int64(len(m.buf)), nil }

// fileOp is one logged physical operation.
type fileOp struct {
	trunc bool // Truncate(size) rather than WriteAt(data, off)
	sync  bool
	off   int64
	data  []byte
	size  int64
}

// filed is one record the file holds, with the oracle state after it.
type filed struct {
	end     int64 // file offset just past the record
	seq     uint64
	nextOrd uint64
	model   map[string]string
}

// recordingFile mirrors operations into a memFile, logs them, and after
// each one notes which records the file holds and how many of them the
// last sync made durable.
type recordingFile struct {
	mem    memFile
	log    []fileOp
	held   []filed   // current records; held[0] stands for the header alone
	file   [][]filed // file[p]: held after the first p ops
	synced []int     // synced[p]: records durable after the first p ops
}

func (r *recordingFile) ReadAt(p []byte, off int64) (int, error) { return r.mem.ReadAt(p, off) }
func (r *recordingFile) Size() (int64, error)                    { return r.mem.Size() }
func (r *recordingFile) Close() error                            { return nil }

func (r *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	if off == 0 {
		r.held = []filed{{end: int64(len(p)), nextOrd: 1, model: map[string]string{}}}
	}
	for at := 0; off > 0 && at < len(p); {
		rec, n, err := DecodeWALRecord(p[at:])
		if err != nil {
			panic(fmt.Sprintf("store wrote a non-record at %d: %v", off+int64(at), err))
		}
		at += n
		last := r.held[len(r.held)-1]
		next := filed{end: off + int64(at), seq: rec.Seq, nextOrd: rec.NextOrd, model: copyModel(last.model)}
		if rec.Op == WALOpPut {
			next.model[string(rec.Key)] = string(rec.Val)
		} else {
			delete(next.model, string(rec.Key))
		}
		r.held = append(r.held, next)
	}
	r.note(fileOp{off: off, data: append([]byte(nil), p...)})
	return r.mem.WriteAt(p, off)
}

func (r *recordingFile) Truncate(n int64) error {
	for r.held[len(r.held)-1].end > n {
		r.held = r.held[:len(r.held)-1]
	}
	r.note(fileOp{trunc: true, size: n})
	return r.mem.Truncate(n)
}

func (r *recordingFile) Sync() error {
	r.note(fileOp{sync: true})
	return nil
}

func (r *recordingFile) note(op fileOp) {
	durable := 0
	if len(r.synced) > 0 {
		durable = min(r.synced[len(r.synced)-1], len(r.held)-1)
	}
	if op.sync {
		durable = len(r.held) - 1
	}
	r.log = append(r.log, op)
	r.file = append(r.file, append([]filed(nil), r.held...))
	r.synced = append(r.synced, durable)
}

// heldAt returns the records the file holds after the first p ops (nil
// before the header was written) and how many of them are durable.
func (r *recordingFile) heldAt(p int) ([]filed, int) {
	if p == 0 {
		return nil, 0
	}
	return r.file[p-1], r.synced[p-1]
}

// replayOps rebuilds the file image after the first n logged ops.
func replayOps(log []fileOp, n int) *memFile {
	f := &memFile{}
	for _, op := range log[:n] {
		switch {
		case op.trunc:
			f.Truncate(op.size)
		case !op.sync:
			f.WriteAt(op.data, op.off)
		}
	}
	return f
}

// buildCrashRun drives a deterministic raw workload — puts, deletes,
// flushes and discards — through a recording file.
func buildCrashRun(t *testing.T) *recordingFile {
	t.Helper()
	rec := &recordingFile{}
	st, err := initFile(rec, "crash.mem")
	if err != nil {
		t.Fatal(err)
	}
	b := st.Batch()
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 160; op++ {
		k := []byte(fmt.Sprintf("iface:%02d", rng.Intn(20)))
		switch n := rng.Intn(20); {
		case n < 4:
			err = b.delete(k)
		case n < 6:
			err = b.Flush()
		case n < 7:
			err = b.Discard()
		default:
			err = b.put(k, []byte(fmt.Sprintf("val-%d-%s", op, make([]byte, rng.Intn(24)))))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	final := rec.held[len(rec.held)-1]
	checkAgainstModel(t, st.Current(), final.model, "recorded run")
	return rec
}

// checkRecovery opens a crash image read-write and asserts it recovers to
// exactly the state after the first k of the records held, and stays
// consistent: it verifies, reports the last record's seq and ordinal
// counter, and a read-only open of the same image sees the same state
// without writing it. With no header (held == nil) a clean open error is
// the only correct outcome.
func checkRecovery(t *testing.T, img *memFile, held []filed, k int, label string) {
	t.Helper()
	pristine := append([]byte(nil), img.buf...)
	ro, roErr := openFile(&memFile{buf: append([]byte(nil), img.buf...)}, label, true, Options{})
	st, err := openFile(img, label, false, Options{})
	if held == nil {
		if err == nil || roErr == nil {
			t.Fatalf("%s: opened with no header on disk", label)
		}
		if !errors.Is(err, ErrNotStore) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: headerless image produced an unexpected error class: %v", label, err)
		}
		return
	}
	if err != nil || roErr != nil {
		t.Fatalf("%s: lost the store: %v / read-only %v", label, err, roErr)
	}
	if string(pristine) != string(ro.f.(*memFile).buf) {
		t.Fatalf("%s: read-only open wrote the image", label)
	}
	want := held[k]
	for _, s := range []*Store{st, ro} {
		sn := s.Current()
		if sn.Seq() != want.seq || sn.nextOrd != want.nextOrd {
			t.Fatalf("%s: recovered seq %d nextOrd %d, want %d and %d", label, sn.Seq(), sn.nextOrd, want.seq, want.nextOrd)
		}
		checkAgainstModel(t, sn, want.model, label)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatalf("%s: verify after recovery: %v", label, err)
	}
}

// checkEveryPrefix replays a run cut after every op, plus a torn and a
// scribbled variant of each in-flight write: every complete record must
// survive, so recovery is the replay of all records held — at least the
// last synced commit — plus those wholly inside the torn write's half.
func checkEveryPrefix(t *testing.T, rec *recordingFile) {
	for p := 0; p <= len(rec.log); p++ {
		held, durable := rec.heldAt(p)
		if held != nil && len(held)-1 < durable {
			t.Fatalf("prefix %d: oracle holds %d records, %d durable", p, len(held)-1, durable)
		}
		checkRecovery(t, replayOps(rec.log, p), held, len(held)-1, fmt.Sprintf("prefix %d/%d", p, len(rec.log)))
		if p == len(rec.log) {
			continue
		}
		next := rec.log[p]
		if next.trunc || next.sync {
			continue
		}
		// Torn in-flight write: only the first half lands, and with it the
		// records of a multi-record write that lie wholly inside it.
		after, _ := rec.heldAt(p + 1)
		half := next.off + int64(len(next.data)/2)
		if held == nil {
			after = nil
		}
		img := replayOps(rec.log, p)
		img.WriteAt(next.data[:len(next.data)/2], next.off)
		checkRecovery(t, img, after, recordsBefore(after, half), fmt.Sprintf("torn %d/%d", p, len(rec.log)))
		// Scribbled: the first half lands and the rest is garbage.
		img = replayOps(rec.log, p)
		scribble := append([]byte(nil), next.data...)
		for i := len(scribble) / 2; i < len(scribble); i++ {
			scribble[i] = 0xAA
		}
		img.WriteAt(scribble, next.off)
		checkRecovery(t, img, after, recordsBefore(after, half), fmt.Sprintf("scribbled %d/%d", p, len(rec.log)))
	}
}

// recordsBefore counts the records wholly inside the first off bytes.
func recordsBefore(held []filed, off int64) int {
	k := 0
	for k+1 < len(held) && held[k+1].end <= off {
		k++
	}
	return k
}

// TestCrashConsistencyEveryCommitOffset replays the raw workload's op log
// cut at every offset, tearing each in-flight write.
func TestCrashConsistencyEveryCommitOffset(t *testing.T) {
	checkEveryPrefix(t, buildCrashRun(t))
}

// TestCrashTruncation cuts the final image at every byte: recovery is the
// replay of the records wholly inside the cut, or a clean error inside the
// header, and every recovered store accepts and commits a new write.
func TestCrashTruncation(t *testing.T) {
	rec := buildCrashRun(t)
	held := rec.held
	full := replayOps(rec.log, len(rec.log))
	for cut := 0; cut <= len(full.buf); cut++ {
		img := &memFile{buf: append([]byte(nil), full.buf[:cut]...)}
		label := fmt.Sprintf("truncate@%d", cut)
		if cut < headerLen {
			checkRecovery(t, img, nil, 0, label)
			continue
		}
		k := recordsBefore(held, int64(cut))
		checkRecovery(t, img, held, k, label)
		st, err := openFile(img, label, false, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := st.Batch()
		if err := b.put([]byte("after-crash"), []byte("x")); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := b.Flush(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := copyModel(held[k].model)
		want["after-crash"] = "x"
		re, err := openFile(&memFile{buf: img.buf}, label, true, Options{})
		if err != nil {
			t.Fatalf("%s: reopen after write: %v", label, err)
		}
		checkAgainstModel(t, re.Current(), want, label+" rewritten")
	}
}

// TestCrashBitFlips flips one bit at every byte of the final image. A flip
// in the header fails the open cleanly. A flip in the last record looks
// like a torn final append: recovery is the replay of every record before
// it, so every commit before the final one survives. A flip anywhere else
// damages a record that later records follow: both opens fail with
// ErrCorrupt and the file is left as it is — committed records are never
// silently cut off.
func TestCrashBitFlips(t *testing.T) {
	rec := buildCrashRun(t)
	held := rec.held
	full := replayOps(rec.log, len(rec.log))
	lastStart := held[len(held)-2].end
	rng := rand.New(rand.NewSource(7))
	for off := 0; off < len(full.buf); off++ {
		img := &memFile{buf: append([]byte(nil), full.buf...)}
		img.buf[off] ^= 1 << uint(rng.Intn(8))
		label := fmt.Sprintf("flip@%d", off)
		switch {
		case off < headerLen:
			if _, err := openFile(img, label, true, Options{}); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotStore) {
				t.Fatalf("%s: open = %v, want a clean header rejection", label, err)
			}
		case int64(off) >= lastStart:
			checkRecovery(t, img, held, len(held)-2, label)
		default:
			flipped := append([]byte(nil), img.buf...)
			if _, err := openFile(img, label, true, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: read-only open = %v, want ErrCorrupt", label, err)
			}
			if _, err := openFile(img, label, false, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: read-write open = %v, want ErrCorrupt", label, err)
			}
			if string(img.buf) != string(flipped) {
				t.Fatalf("%s: a failed open rewrote the file", label)
			}
		}
	}
}

// buildSpecCrashRun drives a spec-level workload — upserts that allocate
// or keep ordinals, deletes, and flushes — through a recording file,
// checking the batch's own answers against an independent model.
func buildSpecCrashRun(t *testing.T) *recordingFile {
	t.Helper()
	rec := &recordingFile{}
	st, err := initFile(rec, "walcrash.mem")
	if err != nil {
		t.Fatal(err)
	}
	b := st.Batch()
	model := map[string]string{}
	ordOf := map[string]uint64{}
	nextOrd := uint64(1)
	rng := rand.New(rand.NewSource(41))
	pool := make([]*spec.Spec, 12)
	for i := range pool {
		pool[i] = mkSpec(fmt.Sprintf("crash.ops%02d", i), "kmalloc", i%2 == 0, int64(i), "p0")
	}
	for c := 0; c < 36; c++ {
		edited := *pool[rng.Intn(len(pool))]
		key := edited.Key()
		_, live := model[key]
		if rng.Intn(4) == 0 {
			if ok := b.DeleteSpec(key); ok != live {
				t.Fatalf("op %d: delete(%q) = %v, model live %v", c, key, ok, live)
			}
			delete(model, key)
		} else {
			edited.OriginPatch = fmt.Sprintf("p%d", c)
			created, err := b.UpsertSpec(&edited)
			if err != nil || created == live {
				t.Fatalf("op %d: upsert(%q) created=%v %v, model live %v", c, key, created, err, live)
			}
			if created { // a fresh or re-inserted key takes the next ordinal
				ordOf[key] = nextOrd
				nextOrd++
			}
			val, err := encodeSpec(ordOf[key], &edited)
			if err != nil {
				t.Fatal(err)
			}
			model[key] = string(val)
		}
		if rng.Intn(9) == 0 {
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	final := rec.held[len(rec.held)-1]
	checkAgainstModel(t, st.Current(), model, "spec run")
	checkAgainstModel(t, st.Current(), final.model, "spec run records")
	if final.nextOrd != nextOrd {
		t.Fatalf("records end at NextOrd %d, model %d", final.nextOrd, nextOrd)
	}
	return rec
}

// TestWALCrashConsistencyEveryPrefix replays the spec-level workload cut
// at every op: a record is recovered once it is wholly on disk, whether or
// not the sync that covers it ran, and ordinals survive.
func TestWALCrashConsistencyEveryPrefix(t *testing.T) {
	checkEveryPrefix(t, buildSpecCrashRun(t))
}

// TestWALCrashRecoveredStoreStaysWritable: recovery is not read-repair
// only — after recovering from an arbitrary mid-run crash point, the store
// accepts further batched spec writes and commits them.
func TestWALCrashRecoveredStoreStaysWritable(t *testing.T) {
	rec := buildSpecCrashRun(t)
	for _, frac := range []int{3, 2, 1} {
		p := len(rec.log) / frac
		held, _ := rec.heldAt(p)
		st, err := openFile(replayOps(rec.log, p), "rewrite", false, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", p, err)
		}
		b := st.Batch()
		sp := mkSpec("crash.after", "krealloc", true, int64(frac), "post")
		created, err := b.UpsertSpec(sp)
		if err != nil || !created {
			t.Fatalf("cut %d: post-recovery upsert: %v %v", p, created, err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		got, found, err := st.Current().SpecByKey(sp.Key())
		if err != nil || !found || got.OriginPatch != "post" {
			t.Fatalf("cut %d: post-recovery spec unreadable: %v %v %v", p, found, err, got)
		}
		if n := st.Current().Len(); n != len(held[len(held)-1].model)+1 {
			t.Fatalf("cut %d: len %d, want %d", p, n, len(held[len(held)-1].model)+1)
		}
	}
}
