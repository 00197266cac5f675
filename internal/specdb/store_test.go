package specdb

// Unit suite for the store proper: raw key/value operations across
// commits and reopens, large values, compaction, verification, version-skew
// rejection, and the spec/query layer's ordinal-order guarantees.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/solver"
	"seal/internal/spec"
)

func tmpStore(t *testing.T) *Store {
	t.Helper()
	st, err := Create(filepath.Join(t.TempDir(), "specs.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustPut(t *testing.T, st *Store, kv ...string) {
	t.Helper()
	if len(kv)%2 != 0 {
		t.Fatal("odd kv list")
	}
	b := st.Batch()
	for i := 0; i < len(kv); i += 2 {
		if err := b.put([]byte(kv[i]), []byte(kv[i+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

// mustDelete commits one raw delete per key.
func mustDelete(t *testing.T, st *Store, keys ...string) {
	t.Helper()
	b := st.Batch()
	for _, k := range keys {
		if err := b.delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
}

func dump(t *testing.T, sn *Snapshot) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := sn.Iterate(func(k, v []byte) (bool, error) {
		out[string(k)] = string(v)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBasicPutGetDelete(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "b", "2", "a", "1", "c", "3")
	sn := st.Current()
	if sn.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sn.Len())
	}
	v, ok := sn.Get([]byte("b"))
	if !ok || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, ok)
	}
	if _, ok := sn.Get([]byte("zz")); ok {
		t.Fatal("Get(zz) found a phantom key")
	}

	// Replace does not change the count.
	mustPut(t, st, "b", "two")
	if got := st.Current().Len(); got != 3 {
		t.Fatalf("Len after replace = %d, want 3", got)
	}

	mustDelete(t, st, "a", "missing")
	got := dump(t, st.Current())
	if len(got) != 2 || got["b"] != "two" || got["c"] != "3" {
		t.Fatalf("final state %v", got)
	}
}

func TestIterationOrderAndRange(t *testing.T) {
	st := tmpStore(t)
	var kv []string
	for i := 0; i < 500; i++ {
		kv = append(kv, fmt.Sprintf("key-%04d", (i*193)%500), strings.Repeat("v", i%40)) // scrambled insert order
	}
	mustPut(t, st, kv...)
	var keys []string
	if err := st.Current().Iterate(func(k, _ []byte) (bool, error) {
		keys = append(keys, string(k))
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 500 {
		t.Fatalf("iterated %d keys, want 500", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order at %d: %q >= %q", i, keys[i-1], keys[i])
		}
	}
	// Range scan from the middle.
	var from []string
	err := st.Current().IterateFrom([]byte("key-0250"), func(k, _ []byte) (bool, error) {
		from = append(from, string(k))
		return len(from) < 5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"key-0250", "key-0251", "key-0252", "key-0253", "key-0254"}
	if strings.Join(from, ",") != strings.Join(want, ",") {
		t.Fatalf("IterateFrom = %v, want %v", from, want)
	}
}

// TestOverflowValues round-trips values far larger than a record's
// framing — sizes that overflowed a page in the paged format — through a
// commit, a reopen and Verify.
func TestOverflowValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", 3*4096+17)
	mid := strings.Repeat("y", 513)
	edge := strings.Repeat("z", 512)
	mustPut(t, st, "big", big, "mid", mid, "edge", edge)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k, want := range map[string]string{"big": big, "mid": mid, "edge": edge} {
		v, ok := st.Current().Get([]byte(k))
		if !ok {
			t.Fatalf("Get(%s) missed", k)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %d bytes, want %d", k, len(v), len(want))
		}
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIsolationAcrossCommit: a held snapshot keeps its state
// across later commits, a compaction and Close.
func TestSnapshotIsolationAcrossCommit(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "k1", "old", "k2", "keep")
	old := st.Current()
	mustPut(t, st, "k1", "new", "k3", "added")
	mustDelete(t, st, "k2")
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := dump(t, old)
	if len(got) != 2 || got["k1"] != "old" || got["k2"] != "keep" {
		t.Fatalf("old snapshot changed after commits: %v", got)
	}
	cur := dump(t, st.Current())
	if len(cur) != 2 || cur["k1"] != "new" || cur["k3"] != "added" {
		t.Fatalf("current snapshot wrong: %v", cur)
	}
	if old.Seq() >= st.Current().Seq() {
		t.Fatalf("seq did not advance: %d -> %d", old.Seq(), st.Current().Seq())
	}
}

func TestReopenByteIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "alpha", "1", "beta", strings.Repeat("b", 2000), "gamma", "3")
	want := dump(t, st.Current())
	wantSeq := st.Current().Seq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Current().Seq() != wantSeq {
		t.Fatalf("reopened seq %d, want %d", st2.Current().Seq(), wantSeq)
	}
	got := dump(t, st2.Current())
	if len(got) != len(want) {
		t.Fatalf("reopened %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("reopened %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestPutKeyValidation(t *testing.T) {
	st := tmpStore(t)
	b := st.Batch()
	if err := b.put(nil, []byte("v")); err == nil || !strings.Contains(err.Error(), "empty key") {
		t.Fatalf("empty key error = %v", err)
	}
	if err := b.put(bytes.Repeat([]byte("k"), MaxKeyLen+1), nil); !errors.Is(err, ErrKeyTooLong) {
		t.Fatalf("long key error = %v", err)
	}
	if err := b.delete(nil); err == nil {
		t.Fatal("empty-key delete accepted")
	}
	// Exactly MaxKeyLen is fine.
	if err := b.put(bytes.Repeat([]byte("k"), MaxKeyLen), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Current().Len() != 1 {
		t.Fatalf("Len = %d, want only the valid key", st.Current().Len())
	}
}

func TestReadOnlyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "k", "v")
	st.Close()

	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	b := ro.Batch()
	if err := b.put([]byte("k"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Flush on read-only store = %v", err)
	}
	if _, err := ro.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Compact on read-only store = %v", err)
	}
	if v, ok := ro.Current().Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("read-only Get = %q %v", v, ok)
	}
}

// format2Image is a format-2 store holding one put, as that format's
// writer laid it out: a header of the same shape as today's, then a record
// per operation, each body ver(1) | op(1) | seq(8) | nextord(8) | klen(4) |
// key | val.
func format2Image() []byte {
	img := encodeHeader(header{nextOrd: 1})
	binary.LittleEndian.PutUint32(img[8:12], 2)
	binary.LittleEndian.PutUint64(img[28:36], checksum(img[:28]))
	body := []byte{1, 1} // record version 1, op put
	body = binary.LittleEndian.AppendUint64(body, 1)
	body = binary.LittleEndian.AppendUint64(body, 1)
	body = append(binary.LittleEndian.AppendUint32(body, 1), "kv"...)
	img = append(binary.LittleEndian.AppendUint32(img, uint32(len(body))), body...)
	return binary.LittleEndian.AppendUint64(img, checksum(body))
}

// TestVersionSkewRejectedCleanly: a header from another format version,
// a format-2 store and a format-1 paged store (meta page in either slot)
// fail with ErrVersion and the re-import hint.
func TestVersionSkewRejectedCleanly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "k", "v")
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(skewed[8:12], FormatVersion+41)
	binary.LittleEndian.PutUint64(skewed[28:36], checksum(skewed[:28]))
	format1 := func(slot int) []byte {
		img := make([]byte, 2*4096)
		img[slot*4096] = 1
		copy(img[slot*4096+1:], magic)
		return img
	}
	for _, tc := range []struct {
		name    string
		img     []byte
		version int
	}{
		{"future header", skewed, FormatVersion + 41},
		{"format-2 store", format2Image(), 2},
		{"format-1 slot 0", format1(0), 1},
		{"format-1 slot 1", format1(1), 1},
	} {
		if err := os.WriteFile(path, tc.img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, open := range []func(string) (*Store, error){Open, OpenReadOnly} {
			_, err = open(path)
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: open = %v, want ErrVersion", tc.name, err)
			}
			for _, frag := range []string{"format", fmt.Sprint(tc.version), "specdb -import"} {
				if !strings.Contains(err.Error(), frag) {
					t.Fatalf("%s: skew error %q does not mention %q", tc.name, err, frag)
				}
			}
		}
	}
}

func TestOpenGarbageFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.db")
	if err := os.WriteFile(path, bytes.Repeat([]byte("garbage "), 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrNotStore) {
		t.Fatalf("Open(garbage) = %v, want ErrNotStore", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Fatal("Open(missing) succeeded")
	}
}

func TestCompactReclaimsAndPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Lots of superseded records: repeated single-key commits.
	for i := 0; i < 50; i++ {
		mustPut(t, st, fmt.Sprintf("k%02d", i), strings.Repeat("v", 600+i))
		mustPut(t, st, fmt.Sprintf("k%02d", i), strings.Repeat("w", 600+i))
	}
	mustPut(t, st, "doomed", "x")
	mustDelete(t, st, "doomed")
	before := dump(t, st.Current())
	preSeq := st.Current().Seq()
	pre := st.Stats()
	held := st.Current() // snapshot taken before compaction must survive it

	cs, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seq != preSeq || st.Current().Seq() != preSeq {
		t.Fatalf("compact seq %d / current %d, want the unchanged %d", cs.Seq, st.Current().Seq(), preSeq)
	}
	if cs.BytesAfter >= cs.BytesBefore*6/10 {
		t.Fatalf("compaction did not drop the superseded half: %d -> %d bytes", cs.BytesBefore, cs.BytesAfter)
	}
	if pre.FileBytes != cs.BytesBefore || st.Stats().FileBytes != cs.BytesAfter {
		t.Fatalf("stats/compact disagree on file size: %d/%d vs %d/%d", pre.FileBytes, st.Stats().FileBytes, cs.BytesBefore, cs.BytesAfter)
	}
	if r := st.Stats().DeadPageRatio; r != 0 {
		t.Fatalf("dead ratio %.2f after compaction, want 0", r)
	}
	after := dump(t, st.Current())
	if len(after) != len(before) {
		t.Fatalf("compaction changed key count: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("compaction changed %q", k)
		}
	}
	if got := dump(t, held); len(got) != len(before) {
		t.Fatal("pre-compaction snapshot broke after Compact")
	}
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compaction left its temporary file behind: %v", err)
	}

	// Writes continue against the compacted file, and a reopen sees them
	// together with the ordinal counter.
	mustPut(t, st, "post-compact", "yes")
	nextOrd := st.Stats().NextOrd
	st.Close()
	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, ok := st2.Current().Get([]byte("post-compact")); !ok || string(v) != "yes" {
		t.Fatalf("post-compact write lost: %q %v", v, ok)
	}
	if got := st2.Stats().NextOrd; got != nextOrd {
		t.Fatalf("reopened NextOrd %d, want %d", got, nextOrd)
	}
}

// TestVerifyCatchesCorruptPage flips a bit inside a committed record that
// a later committed record follows (the unit of corruption that was a page
// in the paged format). Under an open read-write store, Verify reports the
// damage; a new read-write or read-only open fails with ErrCorrupt and
// leaves the file as it is, rather than truncating the commits after the
// flip. A flipped header fails the open outright.
func TestVerifyCatchesCorruptPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1")
	mustPut(t, st, "b", "2")
	st.Close()

	st2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerLen+4+bodyHdr+5] ^= 0x40 // the first record's key byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify on flipped record = %v, want ErrCorrupt", err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-write open past a flipped committed record = %v, want ErrCorrupt", err)
	}
	if _, err := OpenReadOnly(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only open past a flipped committed record = %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("a failed open rewrote the corrupt file")
	}
	// A header flip fails the open outright.
	data[20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReadOnly(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with flipped header = %v, want ErrCorrupt", err)
	}
}

// TestVerifyCatchesDivergedSnapshot: Verify compares the replayed file
// with the snapshot being served, so a file rewritten under an open store
// is reported even when every record is intact.
func TestVerifyCatchesDivergedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, st, "a", "1")
	st.Close()
	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := ro.Verify(); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.db")
	w, err := Create(other)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, w, "a", "2")
	w.Close()
	img, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil { // same inode, new bytes
		t.Fatal(err)
	}
	if _, err := ro.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify of a rewritten file = %v, want ErrCorrupt", err)
	}
}

func TestStats(t *testing.T) {
	st := tmpStore(t)
	mustPut(t, st, "a", "1", "b", "2")
	got := st.Stats()
	if got.Keys != 2 || got.Seq != 1 || got.FileBytes <= headerLen || got.DeadPageRatio != 0 {
		t.Fatalf("stats = %+v", got)
	}
	if got.Path == "" || got.NextOrd != 1 {
		t.Fatalf("stats = %+v", got)
	}
	mustPut(t, st, "a", "one")
	if r := st.Stats().DeadPageRatio; r <= 0.2 || r >= 0.5 {
		t.Fatalf("dead ratio after one of three puts was superseded = %.2f", r)
	}
}

// --- spec layer ---

func mkSpec(iface, api string, forbidden bool, lit int64, patch string) *spec.Spec {
	return &spec.Spec{
		ID:    fmt.Sprintf("S-%s%s-%d", iface, api, lit),
		Iface: iface,
		API:   api,
		Constraint: spec.Constraint{
			Forbidden: forbidden,
			Rel: spec.Relation{
				Kind: spec.RelReach,
				V:    spec.Value{Kind: spec.VLiteral, Lit: lit},
				U:    spec.Use{Kind: spec.UDeref},
				Cond: solver.TrueF{},
			},
		},
		Origin:      spec.OriginRemoved,
		OriginPatch: patch,
	}
}

func testCorpus() []*spec.Spec {
	return []*spec.Spec{
		mkSpec("ops.prepare", "kmalloc", true, 1, "patch-1"),
		mkSpec("", "kfree", true, 2, "patch-1"),
		mkSpec("ops.prepare", "kmalloc", false, 3, "patch-2"),
		mkSpec("ops.finish", "dma_map", true, 4, "patch-2"),
		mkSpec("", "kfree", false, 5, "patch-3"),
	}
}

func importCorpus(t *testing.T, st *Store) []*spec.Spec {
	t.Helper()
	corpus := testCorpus()
	added, skipped, err := st.ImportSpecs(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(corpus) || skipped != 0 {
		t.Fatalf("import: added %d skipped %d", added, skipped)
	}
	return corpus
}

func specKeys(specs []*spec.Spec) []string {
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Key()
	}
	return out
}

func TestImportOrdinalOrderMatchesFlat(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(specKeys(got), "\n") != strings.Join(specKeys(corpus), "\n") {
		t.Fatalf("Specs() order:\n%v\nwant flat order:\n%v", specKeys(got), specKeys(corpus))
	}

	// Re-import is first-wins: everything skipped, nothing changed.
	added, skipped, err := st.ImportSpecs(corpus)
	if err != nil || added != 0 || skipped != len(corpus) {
		t.Fatalf("re-import: added %d skipped %d err %v", added, skipped, err)
	}
}

func TestUpsertKeepsOrdinalDeleteRemoves(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)

	// Edit spec #1 in place: same key, new origin patch.
	edited := *corpus[1]
	edited.OriginPatch = "patch-1-edited"
	created, err := st.UpsertSpec(&edited)
	if err != nil || created {
		t.Fatalf("upsert existing: created=%v err=%v", created, err)
	}
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Key() != corpus[1].Key() || got[1].OriginPatch != "patch-1-edited" {
		t.Fatalf("edited spec moved or kept old patch: pos1=%s from %s", got[1].Key(), got[1].OriginPatch)
	}

	// A brand-new spec appends at the end of ordinal order.
	extra := mkSpec("ops.extra", "vmalloc", true, 9, "patch-9")
	created, err = st.UpsertSpec(extra)
	if err != nil || !created {
		t.Fatalf("upsert new: created=%v err=%v", created, err)
	}
	got, _ = st.Current().Specs()
	if got[len(got)-1].Key() != extra.Key() {
		t.Fatal("new spec did not append at the ordinal tail")
	}

	deleted, err := st.DeleteSpec(extra.Key())
	if err != nil || !deleted {
		t.Fatalf("delete: %v %v", deleted, err)
	}
	deleted, err = st.DeleteSpec(extra.Key())
	if err != nil || deleted {
		t.Fatalf("re-delete: %v %v", deleted, err)
	}
	if got, _ = st.Current().Specs(); len(got) != len(corpus) {
		t.Fatalf("after delete: %d specs, want %d", len(got), len(corpus))
	}
}

func TestScopeSpecs(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)

	one, err := st.Current().ScopeSpecs("iface:ops.prepare")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[0].Key() != corpus[0].Key() || one[1].Key() != corpus[2].Key() {
		t.Fatalf("ScopeSpecs = %v", specKeys(one))
	}
	if none, _ := st.Current().ScopeSpecs("iface:nope"); len(none) != 0 {
		t.Fatalf("ScopeSpecs(nope) = %v", specKeys(none))
	}

	sp, ok, err := st.Current().SpecByKey(corpus[3].Key())
	if err != nil || !ok || sp.API != "dma_map" {
		t.Fatalf("SpecByKey = %v %v %v", sp, ok, err)
	}
	if _, ok, _ := st.Current().SpecByKey("api:none | ∄: ?"); ok {
		t.Fatal("SpecByKey found a phantom spec")
	}
}

func TestQueryFilters(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	sn := st.Current()

	cases := []struct {
		q    string
		want []int // corpus indices
	}{
		{"", []int{0, 1, 2, 3, 4}},
		{"iface=ops.prepare", []int{0, 2}},
		{"api=kfree", []int{1, 4}},
		{"scope=iface:ops.finish", []int{3}},
		{"patch=patch-2", []int{2, 3}},
		{"forbidden=true", []int{0, 1, 3}},
		{"forbidden=false", []int{2, 4}},
		{"iface=ops.prepare, forbidden=false", []int{2}},
		{"origin=P-", []int{0, 1, 2, 3, 4}},
		{"origin=PΩ", nil},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tc.q)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.q, err)
		}
		got, err := sn.Query(q)
		if err != nil {
			t.Fatalf("Query(%q): %v", tc.q, err)
		}
		var want []string
		for _, i := range tc.want {
			want = append(want, corpus[i].Key())
		}
		if strings.Join(specKeys(got), "\n") != strings.Join(want, "\n") {
			t.Errorf("Query(%q) = %v, want %v", tc.q, specKeys(got), want)
		}
	}

	for _, bad := range []string{"bogus=1", "forbidden=maybe", "noequals"} {
		if _, err := ParseQuery(bad); err == nil {
			t.Errorf("ParseQuery(%q) accepted", bad)
		}
	}
}

func TestSpecRoundTripPreservesBytes(t *testing.T) {
	st := tmpStore(t)
	corpus := importCorpus(t, st)
	got, err := st.Current().Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, &spec.DB{Specs: corpus})
	have := mustJSON(t, &spec.DB{Specs: got})
	if !bytes.Equal(want, have) {
		t.Fatalf("store round trip changed spec DB bytes:\n%s\nvs\n%s", want, have)
	}
	// The stored value is the ordinal, then the one-spec DB's binary form,
	// and it decodes back to both.
	for i, sp := range corpus {
		val, _ := st.Current().Get([]byte(sp.Key()))
		enc, err := encodeSpec(uint64(i)+1, sp)
		if err != nil || !bytes.Equal(val, enc) {
			t.Fatalf("spec %d: stored value %x, want %x (%v)", i, val, enc, err)
		}
		ord, got, err := decodeSpec(enc)
		if err != nil || ord != uint64(i)+1 || !bytes.Equal(mustJSON(t, &spec.DB{Specs: []*spec.Spec{got}}), mustJSON(t, &spec.DB{Specs: []*spec.Spec{sp}})) {
			t.Fatalf("spec %d: decoded ordinal %d (%v), or a different spec", i, ord, err)
		}
	}
}

// encodeSpec is the value a spec put with ordinal ord writes.
func encodeSpec(ord uint64, sp *spec.Spec) ([]byte, error) {
	bin, err := (&spec.DB{Specs: []*spec.Spec{sp}}).MarshalBinary()
	return append(binary.AppendUvarint(nil, ord), bin...), err
}

func mustJSON(t *testing.T, db *spec.DB) []byte {
	t.Helper()
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
