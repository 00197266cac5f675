package specdb

// FuzzWALRecord hammers the WAL record decoder with arbitrary byte
// streams. The contract: DecodeWALRecord never panics, classifies every
// rejection as ErrCorrupt (torn/flipped/structurally invalid — the
// normal torn-tail signal) or ErrVersion (checksum-valid record from a
// foreign format), and every accepted record re-encodes to exactly the
// bytes it consumed — so scanning a log is loss-free and deterministic.

import (
	"bytes"
	"errors"
	"testing"
)

// buildWALSeeds mirrors the gencorpus seed set: valid put/delete
// records (small and multi-kilobyte values), truncations, a flipped
// checksum, a resealed version skew, and raw garbage.
func buildWALSeeds() [][]byte {
	put := EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 3, NextOrd: 7,
		Key: []byte("iface:ops.prepare | some-constraint"), Val: []byte(`{"ord":6,"db":{}}`)})
	del := EncodeWALRecord(&WALRecord{Op: WALOpDelete, Seq: 4, NextOrd: 7, Key: []byte("api:kfree | k")})
	big := EncodeWALRecord(&WALRecord{Op: WALOpPut, Seq: 5, NextOrd: 8,
		Key: []byte("k"), Val: bytes.Repeat([]byte("v"), 3*4096)})
	flipped := append([]byte(nil), put...)
	flipped[len(flipped)-2] ^= 0x08
	skew := append([]byte(nil), del...)
	body := skew[4 : len(skew)-8]
	body[0] = WALVersion + 1
	sum := checksum(body)
	for i := 0; i < 8; i++ {
		skew[len(skew)-8+i] = byte(sum >> (8 * i))
	}
	two := append(append([]byte(nil), put...), del...)
	return [][]byte{
		put, del, big, two,
		put[:11], put[:len(put)-1], flipped, skew,
		[]byte("garbage that is not a record"), nil,
	}
}

func FuzzWALRecord(f *testing.F) {
	for _, seed := range buildWALSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeWALRecord(data)
		if err != nil {
			if rec != nil || n != 0 {
				t.Fatalf("rejected decode returned (%+v, %d)", rec, n)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection outside the error contract: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted record consumed %d of %d bytes", n, len(data))
		}
		if rec.Op != WALOpPut && rec.Op != WALOpDelete {
			t.Fatalf("accepted unknown op %d", rec.Op)
		}
		if len(rec.Key) == 0 || len(rec.Key) > MaxKeyLen {
			t.Fatalf("accepted key length %d", len(rec.Key))
		}
		if rec.Op == WALOpDelete && len(rec.Val) != 0 {
			t.Fatal("accepted a delete with a value")
		}
		// Canonical round trip: what the decoder accepted is exactly
		// what the encoder would have written.
		if re := EncodeWALRecord(rec); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from accepted bytes (%d vs %d)", len(re), n)
		}
	})
}
