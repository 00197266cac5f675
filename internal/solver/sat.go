package solver

import "sort"

// Tally counts the solver work one unit of work asked for: every
// satisfiability check (Sat and SatBudget, including those made through
// Unsat, Implies and Equiv) and how the memo served them. The caller owns
// it — one per unit, charged on the unit's goroutine — so a run's figures
// are the sum over its units and never absorb a concurrent run's checks.
// A nil *Tally counts nothing.
type Tally struct {
	Checks     int64 `json:"checks"`
	MemoHits   int64 `json:"memo_hits,omitempty"`
	MemoMisses int64 `json:"memo_misses,omitempty"`
}

// Add folds another tally into t.
func (t *Tally) Add(o Tally) {
	t.Checks += o.Checks
	t.MemoHits += o.MemoHits
	t.MemoMisses += o.MemoMisses
}

// note charges one check and its memo outcome.
func (t *Tally) note(hits, misses int64) {
	if t != nil {
		t.Checks++
		t.MemoHits += hits
		t.MemoMisses += misses
	}
}

// maxDNFConjuncts bounds DNF expansion; beyond it the solver answers
// conservatively ("satisfiable").
const maxDNFConjuncts = 512

// Sat reports whether f is satisfiable over the integers. The procedure is
// exact for boolean combinations of unit-coefficient difference constraints
// (x op c, x op y, x - y op c) — the fragment path conditions live in —
// and conservatively answers true otherwise. Verdicts are memoized under a
// canonical formula signature (see memo.go). The check is not counted; see
// Tally.Sat.
func Sat(f Formula) bool { return (*Tally)(nil).Sat(f) }

// Sat is the package-level Sat charged to t: every call counts, memo hit
// or not, so Checks keeps meaning "checks asked for".
func (t *Tally) Sat(f Formula) bool {
	key := canonKey(f)
	if v, ok := memo.get(key); ok {
		t.note(1, 0)
		return v
	}
	t.note(0, 1)
	v := satRaw(f)
	memo.put(key, v)
	return v
}

// satRaw is the actual decision procedure, bypassing the memo.
func satRaw(f Formula) bool {
	conjs, ok := toDNF(nnf(f))
	if !ok {
		return true // too large: conservative
	}
	for _, conj := range conjs {
		if feasible(conj) {
			return true
		}
	}
	return false
}

// SatBudget is Sat with resource metering: each DNF conjunct's feasibility
// check charges one unit via step (an analysis-step sink, typically
// Budget.Step). On exhaustion it answers conservatively — "satisfiable" —
// exactly like the DNF size cap, so a budgeted run can only keep more
// candidate reports than an unmetered one, never invent unsound pruning.
//
// A metered check deliberately bypasses the Sat memo: whether a unit
// exhausts its budget must depend on its own work, not on which other
// unit happened to warm a process-global cache first — otherwise
// degradation outcomes would vary with scheduling.
//
// The check is charged to t.
func (t *Tally) SatBudget(f Formula, step func(int64) error) bool {
	if step == nil {
		return t.Sat(f)
	}
	t.note(0, 0)
	conjs, ok := toDNF(nnf(f))
	if !ok {
		return true // too large: conservative
	}
	for _, conj := range conjs {
		if err := step(1 + int64(len(conj))/8); err != nil {
			return true // budget exhausted: conservative
		}
		if feasible(conj) {
			return true
		}
	}
	return false
}

// Unsat reports whether f is definitely unsatisfiable.
func Unsat(f Formula) bool { return (*Tally)(nil).Unsat(f) }

// Unsat is Unsat charged to t (one check).
func (t *Tally) Unsat(f Formula) bool { return !t.Sat(f) }

// Implies reports whether f entails g (definitely; false may mean unknown).
func Implies(f, g Formula) bool { return (*Tally)(nil).Implies(f, g) }

// Implies is Implies charged to t (one check).
func (t *Tally) Implies(f, g Formula) bool { return t.Unsat(MkAnd(f, MkNot(g))) }

// Equiv reports whether f and g have the same satisfying sets
// ("evaluating the equivalences of path conditions", paper Alg. 1 line 5).
func Equiv(f, g Formula) bool { return (*Tally)(nil).Equiv(f, g) }

// Equiv is Equiv charged to t: one check, or two when the first
// implication holds.
func (t *Tally) Equiv(f, g Formula) bool { return t.Implies(f, g) && t.Implies(g, f) }

// Delta computes the delta constraint Ψδ = f ∧ ¬g (paper Alg. 2 line 8):
// the conditions under which the pre-patch path ran but the post-patch one
// does not.
func Delta(f, g Formula) Formula { return MkAnd(f, MkNot(g)) }

// NNF returns the negation normal form of f: negations are pushed into the
// atoms (flipping comparison operators), so the result contains no Not
// nodes. Useful for transformations that rewrite atoms in place.
func NNF(f Formula) Formula { return nnf(f) }

// nnf pushes negations to the atoms.
func nnf(f Formula) Formula {
	switch x := f.(type) {
	case nil:
		return TrueF{}
	case TrueF, FalseF, Atom:
		return x
	case And:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = nnf(s)
		}
		return MkAnd(fs...)
	case Or:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = nnf(s)
		}
		return MkOr(fs...)
	case Not:
		switch y := x.F.(type) {
		case TrueF:
			return FalseF{}
		case FalseF:
			return TrueF{}
		case Atom:
			return Atom{Op: y.Op.negate(), A: y.A, B: y.B}
		case Not:
			return nnf(y.F)
		case And:
			fs := make([]Formula, len(y.Fs))
			for i, s := range y.Fs {
				fs[i] = nnf(Not{F: s})
			}
			return MkOr(fs...)
		case Or:
			fs := make([]Formula, len(y.Fs))
			for i, s := range y.Fs {
				fs[i] = nnf(Not{F: s})
			}
			return MkAnd(fs...)
		}
	}
	return f
}

// toDNF expands an NNF formula into a list of conjuncts (each a list of
// atoms). Returns ok=false if the expansion exceeds maxDNFConjuncts.
func toDNF(f Formula) ([][]Atom, bool) {
	switch x := f.(type) {
	case nil, TrueF:
		return [][]Atom{{}}, true
	case FalseF:
		return nil, true
	case Atom:
		return [][]Atom{{x}}, true
	case And:
		acc := [][]Atom{{}}
		for _, sub := range x.Fs {
			subD, ok := toDNF(sub)
			if !ok {
				return nil, false
			}
			var next [][]Atom
			for _, a := range acc {
				for _, b := range subD {
					merged := make([]Atom, 0, len(a)+len(b))
					merged = append(merged, a...)
					merged = append(merged, b...)
					next = append(next, merged)
					if len(next) > maxDNFConjuncts {
						return nil, false
					}
				}
			}
			acc = next
		}
		return acc, true
	case Or:
		var acc [][]Atom
		for _, sub := range x.Fs {
			subD, ok := toDNF(sub)
			if !ok {
				return nil, false
			}
			acc = append(acc, subD...)
			if len(acc) > maxDNFConjuncts {
				return nil, false
			}
		}
		return acc, true
	case Not:
		return toDNF(nnf(x))
	}
	return [][]Atom{{}}, true
}

// linTerm is a linear combination: coeffs over symbol names plus a constant.
type linTerm struct {
	coeffs map[string]int64
	c      int64
}

// linearize converts a term to linear form; non-linear subterms become
// opaque symbols so the result is always usable.
func linearize(t Term) linTerm {
	switch x := t.(type) {
	case Const:
		return linTerm{coeffs: map[string]int64{}, c: x.Val}
	case Sym:
		return linTerm{coeffs: map[string]int64{x.Name: 1}}
	case BinTerm:
		a := linearize(x.A)
		b := linearize(x.B)
		switch x.Op {
		case TAdd:
			return addLin(a, b, 1)
		case TSub:
			return addLin(a, b, -1)
		case TMul:
			if len(a.coeffs) == 0 {
				return scaleLin(b, a.c)
			}
			if len(b.coeffs) == 0 {
				return scaleLin(a, b.c)
			}
			// Non-linear: opaque.
			return linTerm{coeffs: map[string]int64{"#" + x.termString(): 1}}
		}
	}
	return linTerm{coeffs: map[string]int64{"#" + t.termString(): 1}}
}

func addLin(a, b linTerm, sign int64) linTerm {
	out := linTerm{coeffs: make(map[string]int64, len(a.coeffs)+len(b.coeffs)), c: a.c + sign*b.c}
	for k, v := range a.coeffs {
		out.coeffs[k] = v
	}
	for k, v := range b.coeffs {
		out.coeffs[k] += sign * v
		if out.coeffs[k] == 0 {
			delete(out.coeffs, k)
		}
	}
	return out
}

func scaleLin(a linTerm, k int64) linTerm {
	if k == 0 {
		return linTerm{coeffs: map[string]int64{}}
	}
	out := linTerm{coeffs: make(map[string]int64, len(a.coeffs)), c: a.c * k}
	for s, v := range a.coeffs {
		out.coeffs[s] = v * k
	}
	return out
}

const inf = int64(1) << 60

// feasible decides whether a conjunction of atoms has an integer solution,
// using a difference-bound matrix over the involved symbols plus a virtual
// zero, with disequality post-checks.
func feasible(conj []Atom) bool {
	type diseq struct {
		x, y string
		c    int64
	}
	var diseqs []diseq
	// Difference bounds: d[x][y] = upper bound on x - y.
	d := make(map[string]map[string]int64)
	syms := map[string]bool{"0": true}
	bound := func(x, y string, c int64) {
		syms[x], syms[y] = true, true
		m := d[x]
		if m == nil {
			m = make(map[string]int64)
			d[x] = m
		}
		if cur, ok := m[y]; !ok || c < cur {
			m[y] = c
		}
	}

	for _, a := range conj {
		l := addLin(linearize(a.A), linearize(a.B), -1) // A - B
		// l.coeffs · syms + l.c  (op)  0
		switch len(l.coeffs) {
		case 0:
			ok := false
			switch a.Op {
			case OpEq:
				ok = l.c == 0
			case OpNe:
				ok = l.c != 0
			case OpLt:
				ok = l.c < 0
			case OpLe:
				ok = l.c <= 0
			case OpGt:
				ok = l.c > 0
			case OpGe:
				ok = l.c >= 0
			}
			if !ok {
				return false
			}
		case 1:
			var s string
			var k int64
			for name, coef := range l.coeffs {
				s, k = name, coef
			}
			op := a.Op
			c := l.c
			if k < 0 {
				// Multiply both sides of k*s + c (op) 0 by -1.
				k, c = -k, -c
				switch op {
				case OpLt:
					op = OpGt
				case OpLe:
					op = OpGe
				case OpGt:
					op = OpLt
				case OpGe:
					op = OpLe
				}
			}
			// k*s + c (op) 0 with k > 0  =>  s (op) -c/k, integer-rounded.
			switch op {
			case OpEq:
				if c%k != 0 {
					return false
				}
				v := -c / k
				bound(s, "0", v)
				bound("0", s, -v)
			case OpNe:
				if c%k == 0 {
					diseqs = append(diseqs, diseq{x: s, y: "0", c: -c / k})
				}
			case OpLe: // k*s <= -c  => s <= floor(-c/k)
				bound(s, "0", floorDiv(-c, k))
			case OpLt: // s <= ceil(-c/k) - 1 ... s < -c/k => s <= ceil(-c/k)-1
				bound(s, "0", ceilDiv(-c, k)-1)
			case OpGe: // k*s >= -c => s >= ceil(-c/k) => 0 - s <= -ceil(-c/k)
				bound("0", s, -ceilDiv(-c, k))
			case OpGt:
				bound("0", s, -(floorDiv(-c, k) + 1))
			}
		case 2:
			// Try the difference form x - y (coefficients +1/-1).
			var pos, neg string
			okForm := true
			for name, coef := range l.coeffs {
				switch coef {
				case 1:
					if pos != "" {
						okForm = false
					}
					pos = name
				case -1:
					if neg != "" {
						okForm = false
					}
					neg = name
				default:
					okForm = false
				}
			}
			if !okForm || pos == "" || neg == "" {
				continue // conservative: drop constraint
			}
			// pos - neg + c (op) 0.
			c := l.c
			switch a.Op {
			case OpEq:
				bound(pos, neg, -c)
				bound(neg, pos, c)
			case OpNe:
				diseqs = append(diseqs, diseq{x: pos, y: neg, c: -c})
			case OpLe:
				bound(pos, neg, -c)
			case OpLt:
				bound(pos, neg, -c-1)
			case OpGe:
				bound(neg, pos, c)
			case OpGt:
				bound(neg, pos, c-1)
			}
		default:
			// ≥3 symbols: conservatively drop.
			continue
		}
	}

	// Floyd–Warshall closure.
	names := make([]string, 0, len(syms))
	for s := range syms {
		names = append(names, s)
	}
	sort.Strings(names)
	get := func(x, y string) int64 {
		if m, ok := d[x]; ok {
			if v, ok := m[y]; ok {
				return v
			}
		}
		if x == y {
			return 0
		}
		return inf
	}
	for _, k := range names {
		for _, i := range names {
			dik := get(i, k)
			if dik >= inf {
				continue
			}
			for _, j := range names {
				dkj := get(k, j)
				if dkj >= inf {
					continue
				}
				if dik+dkj < get(i, j) {
					bound(i, j, dik+dkj)
				}
			}
		}
	}
	for _, n := range names {
		if get(n, n) < 0 {
			return false
		}
	}
	// Disequality check: x - y != c is violated when the bounds force
	// x - y == c.
	for _, dq := range diseqs {
		if get(dq.x, dq.y) == dq.c && get(dq.y, dq.x) == -dq.c {
			return false
		}
	}
	return true
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}

// Simplify performs shallow constant folding and returns a formula with the
// same satisfying set.
func Simplify(f Formula) Formula {
	switch x := f.(type) {
	case nil:
		return TrueF{}
	case Atom:
		l := addLin(linearize(x.A), linearize(x.B), -1)
		if len(l.coeffs) == 0 {
			ok := false
			switch x.Op {
			case OpEq:
				ok = l.c == 0
			case OpNe:
				ok = l.c != 0
			case OpLt:
				ok = l.c < 0
			case OpLe:
				ok = l.c <= 0
			case OpGt:
				ok = l.c > 0
			case OpGe:
				ok = l.c >= 0
			}
			if ok {
				return TrueF{}
			}
			return FalseF{}
		}
		return x
	case Not:
		return MkNot(Simplify(x.F))
	case And:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = Simplify(s)
		}
		return MkAnd(fs...)
	case Or:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = Simplify(s)
		}
		return MkOr(fs...)
	}
	return f
}
