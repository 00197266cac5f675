package specdb

// FuzzStoreImage opens arbitrary byte images as store files. The contract
// under fuzzing: opening never panics; every image either opens or fails
// with ErrNotStore, ErrCorrupt or ErrVersion; and an image that opens
// read-write reopens to the same Seq and keys, then stays writable — a
// committed put survives another reopen.

import (
	"errors"
	"fmt"
	"testing"
)

// buildStoreImages produces a real store image plus hostile variants,
// mirroring the gencorpus seed set.
func buildStoreImages(tb testing.TB) [][]byte {
	tb.Helper()
	f := &memFile{}
	st, err := initFile(f, "seed.mem")
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := st.ImportSpecs(testCorpus()); err != nil {
		tb.Fatal(err)
	}
	if _, err := st.DeleteSpec(testCorpus()[1].Key()); err != nil {
		tb.Fatal(err)
	}
	img := f.buf
	flipped := append([]byte(nil), img...)
	flipped[headerLen+20] ^= 0x04
	format1 := make([]byte, 64)
	format1[0] = 1
	copy(format1[1:], magic)
	return [][]byte{img, flipped, img[:len(img)-3], img[:headerLen], format1, nil}
}

func FuzzStoreImage(f *testing.F) {
	for _, seed := range buildStoreImages(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img := &memFile{buf: append([]byte(nil), data...)}
		st, err := openFile(img, "fuzz", false, Options{})
		if err != nil {
			if !errors.Is(err, ErrNotStore) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection outside the error contract: %v", err)
			}
			return
		}
		reopen := func(label string) *Snapshot {
			re, err := openFile(&memFile{buf: append([]byte(nil), img.buf...)}, label, false, Options{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return re.Current()
		}
		sn, again := st.Current(), reopen("reopen")
		if again.Seq() != sn.Seq() || fmt.Sprint(again.keys) != fmt.Sprint(sn.keys) {
			t.Fatalf("reopen moved seq %d -> %d or keys %q -> %q", sn.Seq(), again.Seq(), sn.keys, again.keys)
		}
		b := st.Batch()
		if err := b.put([]byte("fuzz-key"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, ok := reopen("after write").Get([]byte("fuzz-key")); !ok || string(v) != "v" {
			t.Fatalf("committed put lost on reopen: %q %v", v, ok)
		}
	})
}
