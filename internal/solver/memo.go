package solver

import "sync"

// Satisfiability memo: path conditions repeat heavily across specs and
// regions (the same guards appear in every path through a function), so
// Sat and SatBudget share one process-global memo. An entry holds the
// formula it was computed on, the verdict, and the step charges the
// computation made — one per DNF conjunct checked, in order, up to the
// verdict. That keeps the memo invisible to budgets:
//
//   - An unbudgeted Sat hit needs the stored formula to equal the asked
//     one up to conjunct/disjunct order ("a && b" and "b && a" share one
//     verdict).
//   - A budgeted SatBudget hit needs it to be exactly equal, operand order
//     included, because DNF order decides the charges. The hit replays the
//     stored charges through step before answering; a replayed charge that
//     fails yields the conservative true, exactly what the computation
//     would have returned at that point. So a unit's charges, steps and
//     degraded/ok outcome depend only on the formulas it checks and its
//     budget, never on which unit warmed the memo first.
//   - A computation cut short by step is not stored: its charges are
//     incomplete.
//
// Entries are keyed by canonKey, a structural hash that ignores operand
// order; the few orders of one formula that get checked are kept side by
// side under its key. A hit is confirmed by structural equality against
// the stored formula, so a hash collision costs a recomputation, never a
// wrong verdict. Eviction is generational (two maps): when the current
// generation fills, it becomes the previous one and lookups promote
// survivors. Memory is bounded by ~2× satMemoCap keys with O(1) turnover.
type satMemo struct {
	mu        sync.Mutex
	cur, prev map[uint64][]memoEntry
	cap       int
}

// memoEntry is one memoized decision.
type memoEntry struct {
	f       Formula
	sat     bool
	charges []int64
}

// satMemoCap bounds one generation. Sized for the working set of a large
// detection run (distinct canonical conditions, not raw checks).
const satMemoCap = 8192

// maxVariants bounds the operand orders of one formula kept side by side
// under its key. Detection checks the same condition in several orders —
// each with its own charges — and overwriting one with the next would
// turn most repeats into recomputations.
const maxVariants = 4

var memo = &satMemo{
	cur: make(map[uint64][]memoEntry, 256),
	cap: satMemoCap,
}

// get returns the entry under key whose formula matches f by eq.
func (m *satMemo) get(key uint64, f Formula, eq func(a, b Formula) bool) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs, ok := m.cur[key]
	if !ok {
		if vs, ok = m.prev[key]; ok {
			m.promote(key, vs)
		}
	}
	for _, e := range vs {
		if eq(e.f, f) {
			return e, true
		}
	}
	return memoEntry{}, false
}

// put stores e under key, replacing the variant with exactly e's formula
// or, once the key holds maxVariants, the oldest one. Buckets are never
// mutated in place: a reader may still hold the previous one.
func (m *satMemo) put(key uint64, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	vs := m.cur[key]
	if vs == nil {
		vs = m.prev[key]
	}
	next := make([]memoEntry, 0, min(len(vs)+1, maxVariants))
	for _, old := range vs {
		if !equal(old.f, e.f) {
			next = append(next, old)
		}
	}
	if len(next) == maxVariants {
		next = next[1:]
	}
	m.promote(key, append(next, e))
}

// promote inserts into the current generation, rotating when full. Caller
// holds mu.
func (m *satMemo) promote(key uint64, vs []memoEntry) {
	if _, ok := m.cur[key]; !ok && len(m.cur) >= m.cap {
		m.prev = m.cur
		m.cur = make(map[uint64][]memoEntry, m.cap)
	}
	m.cur[key] = vs
}

// Structural hashing. canonKey walks the formula once without allocating:
// atoms and terms hash their operators, constants and symbol names, and
// And/Or combine their operands' hashes commutatively (a sum of mixed
// hashes), so formulas equal up to conjunct/disjunct order share a key.
// Summing rather than xoring keeps a repeated operand from cancelling out.
const (
	tagTrue uint64 = iota + 1
	tagFalse
	tagAtom
	tagNot
	tagAnd
	tagOr
	tagConst
	tagSym
	tagBin
)

// mix is the splitmix64 finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// combine folds v into h, order-sensitively.
func combine(h, v uint64) uint64 { return mix(h*0x9e3779b97f4a7c15 + v) }

// hashString is FNV-1a over the bytes of s.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func termHash(t Term) uint64 {
	switch x := t.(type) {
	case Const:
		return combine(tagConst, uint64(x.Val))
	case Sym:
		return combine(tagSym, hashString(x.Name))
	case BinTerm:
		return combine(combine(combine(tagBin, uint64(x.Op)), termHash(x.A)), termHash(x.B))
	}
	return 0
}

// canonKey is f's structural hash, insensitive to And/Or operand order.
func canonKey(f Formula) uint64 {
	switch x := f.(type) {
	case nil, TrueF:
		return mix(tagTrue)
	case FalseF:
		return mix(tagFalse)
	case Atom:
		return combine(combine(combine(tagAtom, uint64(x.Op)), termHash(x.A)), termHash(x.B))
	case Not:
		return combine(tagNot, canonKey(x.F))
	case And:
		return naryKey(tagAnd, x.Fs)
	case Or:
		return naryKey(tagOr, x.Fs)
	}
	return 0
}

func naryKey(tag uint64, fs []Formula) uint64 {
	var sum uint64
	for _, f := range fs {
		sum += mix(canonKey(f))
	}
	return combine(combine(tag, uint64(len(fs))), sum)
}

// equal reports whether a and b are the same formula, And/Or operand
// order included: the structural counterpart of comparing String renderings.
// Terms and atoms are comparable values, so == compares them
// structurally.
func equal(a, b Formula) bool {
	switch x := a.(type) {
	case nil, TrueF:
		return isTrue(b)
	case FalseF:
		_, ok := b.(FalseF)
		return ok
	case Atom:
		y, ok := b.(Atom)
		return ok && x == y
	case Not:
		y, ok := b.(Not)
		return ok && equal(x.F, y.F)
	case And:
		y, ok := b.(And)
		return ok && equalSeq(x.Fs, y.Fs)
	case Or:
		y, ok := b.(Or)
		return ok && equalSeq(x.Fs, y.Fs)
	}
	return false
}

func isTrue(f Formula) bool {
	switch f.(type) {
	case nil, TrueF:
		return true
	}
	return false
}

func equalSeq(a, b []Formula) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// equalUnordered is equal with And/Or operands compared as multisets:
// the equality canonKey's order-insensitivity stands for.
func equalUnordered(a, b Formula) bool {
	switch x := a.(type) {
	case Not:
		y, ok := b.(Not)
		return ok && equalUnordered(x.F, y.F)
	case And:
		y, ok := b.(And)
		return ok && equalMultiset(x.Fs, y.Fs)
	case Or:
		y, ok := b.(Or)
		return ok && equalMultiset(x.Fs, y.Fs)
	}
	return equal(a, b)
}

func equalMultiset(a, b []Formula) bool {
	if len(a) != len(b) {
		return false
	}
	if equalSeq(a, b) {
		return true // the common case: same order
	}
	used := make([]bool, len(b))
next:
	for _, f := range a {
		for j, g := range b {
			if !used[j] && equalUnordered(f, g) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}
