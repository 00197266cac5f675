package specdb

// Model-based property test: seeded random operation sequences (put,
// delete, flush, discard, snapshot, compact, reopen) run against an
// in-memory map model. Staged operations change the model only when their
// batch flushes; a discard or a reopen drops them. After every operation
// the store's published snapshot must agree with the committed model on
// content, count, and iteration order; held snapshots must keep showing the state they were
// taken at no matter what later commits, compactions and closes do;
// OpenAt must reproduce every commit since the last compaction; and a
// close/reopen cycle must reload the same state without rewriting the
// file.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// heldSnap pairs a live snapshot with the model state at capture time.
type heldSnap struct {
	snap  *Snapshot
	model map[string]string
}

func copyModel(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkAgainstModel asserts a snapshot shows exactly the model state,
// in sorted key order.
func checkAgainstModel(t *testing.T, sn *Snapshot, model map[string]string, label string) {
	t.Helper()
	if sn.Len() != len(model) {
		t.Fatalf("%s: Len = %d, model has %d", label, sn.Len(), len(model))
	}
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	err := sn.Iterate(func(k, v []byte) (bool, error) {
		if i >= len(want) {
			return false, fmt.Errorf("extra key %q", k)
		}
		if string(k) != want[i] {
			return false, fmt.Errorf("key %d: %q, model %q", i, k, want[i])
		}
		if string(v) != model[want[i]] {
			return false, fmt.Errorf("key %q: value %d bytes, model %d bytes", k, len(v), len(model[want[i]]))
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if i != len(want) {
		t.Fatalf("%s: iterated %d keys, model has %d", label, i, len(want))
	}
}

func fileHash(t *testing.T, path string) [32]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

func TestModelRandomOps(t *testing.T) {
	seeds := []int64{1, 7, 42, 1234}
	if !testing.Short() {
		for seed := int64(2); seed < 38; seed++ {
			seeds = append(seeds, seed)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runModelSeed(t, seed)
		})
	}
}

// commitPoint is the committed model at one published seq.
type commitPoint struct {
	seq   uint64
	model map[string]string
}

func runModelSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	path := filepath.Join(t.TempDir(), "model.db")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()

	committed, pending := map[string]string{}, map[string]string{}
	var held []heldSnap
	points := []commitPoint{{seq: 0, model: map[string]string{}}} // reachable by OpenAt
	var gone []uint64                                             // seqs a compaction dropped

	key := func() string { return fmt.Sprintf("spec/%03d", rng.Intn(60)) }
	value := func() string {
		sizes := []int{0, 1, 17, 511, 512, 513, 2000, 4200}
		return strings.Repeat(string(rune('a'+rng.Intn(26))), sizes[rng.Intn(len(sizes))])
	}
	// flushed records the commit a Flush just made, if it wrote anything.
	flushed := func() {
		committed = copyModel(pending)
		if seq := st.Current().Seq(); seq != points[len(points)-1].seq {
			points = append(points, commitPoint{seq: seq, model: committed})
		}
	}
	checkOpenAt := func(label string) {
		for _, p := range points {
			pin, err := OpenAt(path, p.seq)
			if err != nil {
				t.Fatalf("%s: OpenAt(%d): %v", label, p.seq, err)
			}
			checkAgainstModel(t, pin.Current(), p.model, fmt.Sprintf("%s OpenAt(%d)", label, p.seq))
			pin.Close()
		}
		for _, seq := range gone {
			if _, err := OpenAt(path, seq); !errors.Is(err, ErrSnapshotGone) {
				t.Fatalf("%s: OpenAt(%d) before the last compaction = %v, want ErrSnapshotGone", label, seq, err)
			}
		}
	}

	b := st.Batch()
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(20); {
		case op < 10:
			k, v := key(), value()
			if err := b.put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			pending[k] = v
		case op < 13:
			k := key()
			if err := b.delete([]byte(k)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			delete(pending, k)
		case op < 15:
			if err := b.Flush(); err != nil {
				t.Fatalf("step %d flush: %v", step, err)
			}
			flushed()
		case op < 16:
			if err := b.Discard(); err != nil {
				t.Fatalf("step %d discard: %v", step, err)
			}
			pending = copyModel(committed)
		case op < 17: // take and hold a snapshot
			if len(held) < 4 {
				held = append(held, heldSnap{snap: st.Current(), model: copyModel(committed)})
			}
		case op < 18: // compact; held snapshots survive, older seqs go
			if _, err := st.Compact(); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
			last := points[len(points)-1]
			for _, p := range points[:len(points)-1] {
				if p.seq != last.seq {
					gone = append(gone, p.seq)
				}
			}
			points = []commitPoint{last}
		default: // close and reopen; the file bytes must be untouched
			preHash := fileHash(t, path)
			if err := st.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			preSeq := st.Current().Seq()
			if st, err = Open(path); err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
			b = st.Batch() // the closed store's staged operations are gone
			pending = copyModel(committed)
			if got := fileHash(t, path); got != preHash {
				t.Fatalf("step %d: close and reopen rewrote the file", step)
			}
			if st.Current().Seq() != preSeq {
				t.Fatalf("step %d: reopen changed seq %d -> %d", step, preSeq, st.Current().Seq())
			}
			checkOpenAt(fmt.Sprintf("step %d", step))
		}

		checkAgainstModel(t, st.Current(), committed, fmt.Sprintf("step %d current", step))
		for i, h := range held {
			checkAgainstModel(t, h.snap, h.model, fmt.Sprintf("step %d held[%d]@seq%d", step, i, h.snap.Seq()))
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed()
	checkOpenAt("end")
	if _, err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}
