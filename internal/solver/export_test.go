package solver

// Test access to the memo and the decision procedure's internals, for the
// external oracle tests in this directory.

// ResetMemo empties the process-global memo.
func ResetMemo() {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	memo.cur = make(map[uint64][]memoEntry, 256)
	memo.prev = nil
}

// MemoFormulas returns every formula the memo holds, previous generation
// first.
func MemoFormulas() []Formula {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	var out []Formula
	for _, gen := range []map[uint64][]memoEntry{memo.prev, memo.cur} {
		for _, vs := range gen {
			for _, e := range vs {
				out = append(out, e.f)
			}
		}
	}
	return out
}

var (
	ToDNF          = toDNF
	Feasible       = feasible
	CanonKey       = canonKey
	Equal          = equal
	EqualUnordered = equalUnordered
)
