// Package solver is the logical-satisfiability substrate substituting Z3
// (paper §7): a decision procedure for boolean combinations of integer
// comparisons, sufficient for the path conditions occurring in interface
// code (NULL checks, error-code comparisons, bounds checks). It provides
// satisfiability, equivalence, implication, and delta constraints
// (Ψδ = Ψ− ∧ ¬Ψ+, paper Alg. 2 line 8).
package solver

import (
	"slices"
	"sort"
	"strconv"
)

// CmpOp is a comparison operator of an atom.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// negate returns the complementary operator.
func (op CmpOp) negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Term is an integer-valued term: a constant, a symbol, or an arithmetic
// combination.
type Term interface {
	appendTerm(b []byte) []byte
}

// Const is an integer constant term.
type Const struct{ Val int64 }

func (c Const) appendTerm(b []byte) []byte { return strconv.AppendInt(b, c.Val, 10) }

// Sym is a symbolic integer (a program value).
type Sym struct{ Name string }

func (s Sym) appendTerm(b []byte) []byte { return append(b, s.Name...) }

// TermOp is an arithmetic operator.
type TermOp int

// Arithmetic operators.
const (
	TAdd TermOp = iota
	TSub
	TMul
)

// BinTerm is an arithmetic combination of terms.
type BinTerm struct {
	Op   TermOp
	A, B Term
}

func (t BinTerm) appendTerm(b []byte) []byte {
	op := byte('+')
	switch t.Op {
	case TSub:
		op = '-'
	case TMul:
		op = '*'
	}
	b = t.A.appendTerm(append(b, '('))
	return append(t.B.appendTerm(append(b, op)), ')')
}

// Formula is a boolean combination of atoms.
type Formula interface {
	appendFormula(b []byte) []byte
}

// TrueF is the always-true formula.
type TrueF struct{}

func (TrueF) appendFormula(b []byte) []byte { return append(b, "true"...) }

// FalseF is the always-false formula.
type FalseF struct{}

func (FalseF) appendFormula(b []byte) []byte { return append(b, "false"...) }

// Atom is a single comparison.
type Atom struct {
	Op   CmpOp
	A, B Term
}

func (a Atom) appendFormula(b []byte) []byte {
	b = append(append(append(a.A.appendTerm(b), ' '), a.Op.String()...), ' ')
	return a.B.appendTerm(b)
}

// Not negates a formula.
type Not struct{ F Formula }

func (n Not) appendFormula(b []byte) []byte {
	return append(n.F.appendFormula(append(b, "!("...)), ')')
}

// And is an n-ary conjunction.
type And struct{ Fs []Formula }

func (a And) appendFormula(b []byte) []byte { return appendJoined(b, a.Fs, " && ", "true") }

// Or is an n-ary disjunction.
type Or struct{ Fs []Formula }

func (o Or) appendFormula(b []byte) []byte { return appendJoined(b, o.Fs, " || ", "false") }

// appendJoined renders the operands of an And or Or, parenthesized and
// separated by sep; empty renders as the operation's identity.
func appendJoined(b []byte, fs []Formula, sep, empty string) []byte {
	if len(fs) == 0 {
		return append(b, empty...)
	}
	b = append(b, '(')
	for i, f := range fs {
		if i > 0 {
			b = append(b, sep...)
		}
		b = f.appendFormula(b)
	}
	return append(b, ')')
}

// String renders a formula.
func String(f Formula) string { return string(AppendString(nil, f)) }

// AppendString appends String(f) to b.
func AppendString(b []byte, f Formula) []byte {
	if f == nil {
		return append(b, "true"...)
	}
	return f.appendFormula(b)
}

// MkAnd builds a conjunction, flattening, deduplicating, and
// short-circuiting.
func MkAnd(fs ...Formula) Formula {
	var fbuf [8]Formula
	var kbuf [8]uint64
	ops := operands{fs: fbuf[:0], keys: kbuf[:0]}
	for _, f := range fs {
		var ok bool
		if ops, ok = ops.pushAnd(f); !ok {
			return FalseF{}
		}
	}
	switch len(ops.fs) {
	case 0:
		return TrueF{}
	case 1:
		return ops.fs[0]
	}
	return And{Fs: slices.Clone(ops.fs)}
}

// MkOr builds a disjunction, flattening, deduplicating, and
// short-circuiting.
func MkOr(fs ...Formula) Formula {
	var fbuf [8]Formula
	var kbuf [8]uint64
	ops := operands{fs: fbuf[:0], keys: kbuf[:0]}
	for _, f := range fs {
		var ok bool
		if ops, ok = ops.pushOr(f); !ok {
			return TrueF{}
		}
	}
	switch len(ops.fs) {
	case 0:
		return FalseF{}
	case 1:
		return ops.fs[0]
	}
	return Or{Fs: slices.Clone(ops.fs)}
}

// operands collects the distinct operands of one And or Or in first-seen
// order. Duplicates are found by canonKey plus exact structural equality,
// so operands that differ only in their own operand order both stay.
// MkAnd and MkOr collect into stack buffers and copy the operands out
// once, at their final size.
type operands struct {
	fs   []Formula
	keys []uint64
}

// pushAnd adds f as conjuncts; false means f is false and so is the And.
// The operands pass by value, so stack buffers behind them stay on the
// stack.
func (o operands) pushAnd(f Formula) (operands, bool) {
	switch x := f.(type) {
	case nil, TrueF:
		return o, true
	case FalseF:
		return o, false
	case And:
		for _, k := range x.Fs {
			var ok bool
			if o, ok = o.pushAnd(k); !ok {
				return o, false
			}
		}
		return o, true
	}
	return o.add(f), true
}

// pushOr adds f as disjuncts; false means f is true and so is the Or.
func (o operands) pushOr(f Formula) (operands, bool) {
	switch x := f.(type) {
	case nil, FalseF:
		return o, true
	case TrueF:
		return o, false
	case Or:
		for _, k := range x.Fs {
			var ok bool
			if o, ok = o.pushOr(k); !ok {
				return o, false
			}
		}
		return o, true
	}
	return o.add(f), true
}

func (o operands) add(f Formula) operands {
	key := canonKey(f)
	for i, k := range o.keys {
		if k == key && equal(o.fs[i], f) {
			return o
		}
	}
	o.fs = append(o.fs, f)
	o.keys = append(o.keys, key)
	return o
}

// MkNot builds a negation, pushing through constants.
func MkNot(f Formula) Formula {
	switch x := f.(type) {
	case nil, TrueF:
		return FalseF{}
	case FalseF:
		return TrueF{}
	case Not:
		return x.F
	case Atom:
		return Atom{Op: x.Op.negate(), A: x.A, B: x.B}
	}
	return Not{F: f}
}

// Symbols returns the sorted symbol names occurring in a formula.
func Symbols(f Formula) []string {
	set := make(map[string]bool)
	collectSyms(f, set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func collectSyms(f Formula, set map[string]bool) {
	switch x := f.(type) {
	case Atom:
		collectTermSyms(x.A, set)
		collectTermSyms(x.B, set)
	case Not:
		collectSyms(x.F, set)
	case And:
		for _, s := range x.Fs {
			collectSyms(s, set)
		}
	case Or:
		for _, s := range x.Fs {
			collectSyms(s, set)
		}
	}
}

func collectTermSyms(t Term, set map[string]bool) {
	switch x := t.(type) {
	case Sym:
		set[x.Name] = true
	case BinTerm:
		collectTermSyms(x.A, set)
		collectTermSyms(x.B, set)
	}
}

// Rename returns a copy of f with symbol names mapped through ren; names
// absent from ren are kept.
func Rename(f Formula, ren map[string]string) Formula {
	switch x := f.(type) {
	case nil:
		return nil
	case TrueF, FalseF:
		return x
	case Atom:
		return Atom{Op: x.Op, A: renameTerm(x.A, ren), B: renameTerm(x.B, ren)}
	case Not:
		return Not{F: Rename(x.F, ren)}
	case And:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = Rename(s, ren)
		}
		return And{Fs: fs}
	case Or:
		fs := make([]Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = Rename(s, ren)
		}
		return Or{Fs: fs}
	}
	return f
}

func renameTerm(t Term, ren map[string]string) Term {
	switch x := t.(type) {
	case Sym:
		if n, ok := ren[x.Name]; ok {
			return Sym{Name: n}
		}
		return x
	case BinTerm:
		return BinTerm{Op: x.Op, A: renameTerm(x.A, ren), B: renameTerm(x.B, ren)}
	}
	return t
}

// Eval evaluates a formula under a full assignment; used by property tests
// to cross-check the decision procedure against brute force.
func Eval(f Formula, env map[string]int64) bool {
	switch x := f.(type) {
	case nil, TrueF:
		return true
	case FalseF:
		return false
	case Atom:
		a, aok := EvalTerm(x.A, env)
		b, bok := EvalTerm(x.B, env)
		if !aok || !bok {
			return false
		}
		switch x.Op {
		case OpEq:
			return a == b
		case OpNe:
			return a != b
		case OpLt:
			return a < b
		case OpLe:
			return a <= b
		case OpGt:
			return a > b
		case OpGe:
			return a >= b
		}
	case Not:
		return !Eval(x.F, env)
	case And:
		for _, s := range x.Fs {
			if !Eval(s, env) {
				return false
			}
		}
		return true
	case Or:
		for _, s := range x.Fs {
			if Eval(s, env) {
				return true
			}
		}
		return false
	}
	return false
}

// EvalTerm evaluates a term under an assignment.
func EvalTerm(t Term, env map[string]int64) (int64, bool) {
	switch x := t.(type) {
	case Const:
		return x.Val, true
	case Sym:
		v, ok := env[x.Name]
		return v, ok
	case BinTerm:
		a, aok := EvalTerm(x.A, env)
		b, bok := EvalTerm(x.B, env)
		if !aok || !bok {
			return 0, false
		}
		switch x.Op {
		case TAdd:
			return a + b, true
		case TSub:
			return a - b, true
		case TMul:
			return a * b, true
		}
	}
	return 0, false
}
