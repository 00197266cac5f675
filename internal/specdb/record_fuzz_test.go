package specdb

// FuzzWALRecord hammers the commit-record decoder with arbitrary byte
// streams. The contract: decodeCommit never panics, classifies every
// rejection as ErrCorrupt (torn, flipped or structurally invalid — the
// torn-tail signal), allocates no more operations than the input could
// hold, and every accepted record re-encodes to exactly the bytes it
// consumed — so scanning a log is loss-free and deterministic.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// buildRecordSeeds mirrors the gencorpus seed set: valid commits (one put,
// one delete, a multi-kilobyte value, several operations, none), two
// records back to back, truncations, a flipped checksum and raw garbage.
func buildRecordSeeds() [][]byte {
	put := record(3, 7, putOp("iface:ops.prepare | some-constraint", "\x06\x01spec"))
	del := record(4, 7, delOp("api:kfree | k"))
	big := record(5, 8, putOp("k", strings.Repeat("v", 3*4096)))
	multi := record(6, 9, putOp("a", "1"), delOp("b"), putOp("c", ""))
	flipped := append([]byte(nil), put...)
	flipped[len(flipped)-2] ^= 0x08
	return [][]byte{
		put, del, big, append(append([]byte(nil), put...), del...), multi, record(7, 9),
		put[:11], put[:len(put)-1], flipped,
		[]byte("garbage that is not a record"), nil,
	}
}

func FuzzWALRecord(f *testing.F) {
	for _, seed := range buildRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := decodeCommit(data)
		if err != nil {
			if c != nil || n != 0 {
				t.Fatalf("rejected decode returned (%+v, %d)", c, n)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection outside the error contract: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) || len(c.ops) > n/6 {
			t.Fatalf("accepted record of %d operations consumed %d of %d bytes", len(c.ops), n, len(data))
		}
		for _, o := range c.ops {
			if o.kind != opPut && o.kind != opDelete {
				t.Fatalf("accepted unknown op %d", o.kind)
			}
			if len(o.key) == 0 || len(o.key) > MaxKeyLen {
				t.Fatalf("accepted key length %d", len(o.key))
			}
			if o.kind == opDelete && o.val != nil {
				t.Fatal("accepted a delete with a value")
			}
		}
		// Canonical round trip: what the decoder accepted is exactly
		// what the encoder would have written.
		if re, err := appendCommit(nil, c); err != nil || !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs from accepted bytes (%d vs %d, %v)", len(re), n, err)
		}
	})
}
