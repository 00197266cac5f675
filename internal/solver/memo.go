package solver

import (
	"sort"
	"strings"
	"sync"
)

// Satisfiability memo: path conditions repeat heavily across specs and
// regions (the same guards appear in every path through a function), so
// verdicts for the unbudgeted Sat are memoized under a canonical key. The
// memo is a correctness-neutral, process-global LRU:
//
//   - Only the unbudgeted Sat consults it. SatBudget with a live step
//     function bypasses the memo entirely — a budgeted check must charge
//     its unit the real work, or a warm memo would flip degradation
//     outcomes depending on which unit ran first.
//   - Keys are canonical: conjunct/disjunct order is normalized away, so
//     "a && b" and "b && a" share one verdict.
//   - Eviction is generational (two maps): when the current generation
//     fills, it becomes the previous one and lookups promote survivors.
//     Memory is bounded by ~2× satMemoCap entries with O(1) turnover.
type satMemo struct {
	mu        sync.Mutex
	cur, prev map[string]bool
	cap       int
}

// satMemoCap bounds one generation. Sized for the working set of a large
// detection run (distinct canonical conditions, not raw checks).
const satMemoCap = 8192

var memo = &satMemo{
	cur: make(map[string]bool, 256),
	cap: satMemoCap,
}

func (m *satMemo) get(key string) (bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.cur[key]; ok {
		return v, true
	}
	if v, ok := m.prev[key]; ok {
		m.promote(key, v)
		return v, true
	}
	return false, false
}

func (m *satMemo) put(key string, v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.promote(key, v)
}

// promote inserts into the current generation, rotating when full. Caller
// holds mu.
func (m *satMemo) promote(key string, v bool) {
	if len(m.cur) >= m.cap {
		m.prev = m.cur
		m.cur = make(map[string]bool, m.cap)
	}
	m.cur[key] = v
}

// canonKey renders f with commutative operands sorted, so formulas equal
// up to conjunct/disjunct order share a memo slot. Sorting is sound for
// the key because And/Or are commutative and the verdict depends only on
// the satisfying set; the formula itself is never reordered.
func canonKey(f Formula) string {
	var sb strings.Builder
	writeCanon(&sb, f)
	return sb.String()
}

func writeCanon(sb *strings.Builder, f Formula) {
	switch x := f.(type) {
	case nil, TrueF:
		sb.WriteString("T")
	case FalseF:
		sb.WriteString("F")
	case Atom:
		sb.WriteString(x.fString())
	case Not:
		sb.WriteString("!(")
		writeCanon(sb, x.F)
		sb.WriteString(")")
	case And:
		writeCanonNary(sb, "&", x.Fs)
	case Or:
		writeCanonNary(sb, "|", x.Fs)
	default:
		// Unknown formula kinds render via their own fString; still a
		// valid (if uncanonicalized) key.
		sb.WriteString(f.fString())
	}
}

func writeCanonNary(sb *strings.Builder, op string, fs []Formula) {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = canonKey(f)
	}
	sort.Strings(parts)
	sb.WriteString(op)
	sb.WriteString("(")
	sb.WriteString(strings.Join(parts, ","))
	sb.WriteString(")")
}
