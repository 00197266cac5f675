package solver_test

import (
	"testing"

	"seal/internal/solver"
)

// formulaReader decodes fuzz bytes into a formula over three symbols and
// small constants; reads past the end yield zeros, so every input decodes.
type formulaReader struct {
	data []byte
	pos  int
}

func (r *formulaReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *formulaReader) term(depth int) solver.Term {
	b := r.next()
	switch {
	case depth > 0 && b%5 == 4:
		return solver.BinTerm{Op: solver.TermOp(r.next() % 3), A: r.term(depth - 1), B: r.term(depth - 1)}
	case b%5 < 3:
		return solver.Sym{Name: string(rune('a' + b%3))}
	}
	return solver.Const{Val: int64(r.next()%9) - 4}
}

// formula builds MkAnd/MkOr-normalized nodes and raw And/Or nodes (two to
// four operands, duplicates allowed) so both shapes reach the solver.
func (r *formulaReader) formula(depth int) solver.Formula {
	b := r.next()
	if depth == 0 || b%9 < 3 {
		return solver.Atom{Op: solver.CmpOp(r.next() % 6), A: r.term(1), B: r.term(1)}
	}
	switch b % 9 {
	case 3:
		return solver.MkAnd(r.formula(depth-1), r.formula(depth-1))
	case 4:
		return solver.MkOr(r.formula(depth-1), r.formula(depth-1))
	case 5:
		return solver.Not{F: r.formula(depth - 1)}
	case 6:
		return solver.FalseF{}
	}
	fs := make([]solver.Formula, 2+r.next()%3)
	for i := range fs {
		fs[i] = r.formula(depth - 1)
	}
	if b%9 == 7 {
		return solver.And{Fs: fs}
	}
	return solver.Or{Fs: fs}
}

// FuzzSat holds the memoized solver to the reference on arbitrary
// formulas: verdicts and step charges on a miss, an exact hit, a reordered
// hit and a refused charge (diffOne), and the key/equality contract — a
// reordering shares the key and is unordered-equal, and exact equality
// agrees with rendering equality.
func FuzzSat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 2, 1, 0, 3, 1, 2, 1, 4, 8, 0, 1, 2, 1, 0, 5})
	f.Add([]byte{8, 3, 3, 1, 1, 0, 2, 2, 7, 2, 4, 5, 0, 0, 1, 1, 3})
	f.Add([]byte{3, 4, 7, 3, 0, 1, 0, 2, 1, 5, 0, 4, 4, 1, 2, 3, 8, 2, 0, 0, 1, 6, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input")
		}
		defer solver.ResetMemo()
		fm := (&formulaReader{data: data}).formula(4)
		diffOne(t, newRefSolver(), fm)
		g := reorder(fm)
		if solver.CanonKey(fm) != solver.CanonKey(g) || !solver.EqualUnordered(fm, g) {
			t.Fatalf("%s and its reordering %s: keys %x/%x, unordered-equal %v", solver.String(fm), solver.String(g),
				solver.CanonKey(fm), solver.CanonKey(g), solver.EqualUnordered(fm, g))
		}
		if eq, same := solver.Equal(fm, g), solver.String(fm) == solver.String(g); eq != same {
			t.Fatalf("Equal(%s, %s) = %v, renderings equal = %v", solver.String(fm), solver.String(g), eq, same)
		}
	})
}
