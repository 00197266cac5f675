package spec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seal/internal/solver"
	"seal/internal/spec"
)

// Spec keys are built with appends. These tests hold them to the fmt
// renderings they replaced, over the digest tests' inputs.

// fmtKey is Spec.Key as rendered through fmt.
func fmtKey(s *spec.Spec) string {
	return s.Scope() + " | " + fmtConstraint(s.Constraint)
}

func fmtConstraint(c spec.Constraint) string {
	if c.Forbidden {
		return "∄: " + fmtRelation(c.Rel)
	}
	return "∀: " + fmtRelation(c.Rel)
}

func fmtRelation(r spec.Relation) string {
	switch r.Kind {
	case spec.RelReach:
		c := fmtCond(r.Cond)
		if c == "true" {
			return fmt.Sprintf("%s ↪ %s", fmtValue(r.V), fmtUse(r.U))
		}
		return fmt.Sprintf("%s ↪ %s under (%s)", fmtValue(r.V), fmtUse(r.U), c)
	case spec.RelOrder:
		v, u1, u2 := fmtValue(r.V), fmtUse(r.U1), fmtUse(r.U2)
		return fmt.Sprintf("(%s ↪ %s) ∧ (%s ↪ %s) ∧ (%s ≺ %s)", v, u1, v, u2, u2, u1)
	}
	return "?"
}

func fmtValue(v spec.Value) string {
	base := ""
	switch v.Kind {
	case spec.VIfaceArg:
		base = fmt.Sprintf("arg%d[%s]", v.ArgIndex, v.Iface)
	case spec.VAPIRet:
		base = fmt.Sprintf("ret[%s]", v.API)
	case spec.VGlobal:
		base = fmt.Sprintf("global[%s]", v.Global)
	case spec.VLiteral:
		base = fmt.Sprintf("lit[%d]", v.Lit)
	case spec.VUninit:
		base = "uninit"
	}
	return base + v.Field
}

func fmtUse(u spec.Use) string {
	switch u.Kind {
	case spec.UAPIArg:
		return fmt.Sprintf("arg%d[%s]", u.ArgIndex, u.API)
	case spec.UIfaceRet:
		return fmt.Sprintf("ret[%s]", u.Iface)
	case spec.UGlobalStore:
		return fmt.Sprintf("store[%s]", u.Global)
	case spec.UDeref:
		return "deref"
	case spec.UIndex:
		return "index"
	case spec.UDiv:
		return "div"
	case spec.UParamStore:
		return fmt.Sprintf("pstore%d[%s]", u.ArgIndex, u.Iface)
	}
	return "?"
}

// fmtCond renders a formula as solver.String did through fmt and string
// concatenation: a nil formula is true, and a nil operand or term panics,
// as it always has.
func fmtCond(f solver.Formula) string {
	if f == nil {
		return "true"
	}
	return fmtNode(f)
}

func fmtNode(f solver.Formula) string {
	switch x := f.(type) {
	case solver.TrueF:
		return "true"
	case solver.FalseF:
		return "false"
	case solver.Atom:
		return fmt.Sprintf("%s %s %s", fmtTerm(x.A), x.Op, fmtTerm(x.B))
	case solver.Not:
		return "!(" + fmtNode(x.F) + ")"
	case solver.And:
		return fmtJoined(x.Fs, " && ", "true")
	case solver.Or:
		return fmtJoined(x.Fs, " || ", "false")
	}
	panic(fmt.Sprintf("unknown formula %T", f))
}

func fmtJoined(fs []solver.Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmtNode(f)
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func fmtTerm(t solver.Term) string {
	switch x := t.(type) {
	case solver.Const:
		return fmt.Sprintf("%d", x.Val)
	case solver.Sym:
		return x.Name
	case solver.BinTerm:
		op := "+"
		switch x.Op {
		case solver.TSub:
			op = "-"
		case solver.TMul:
			op = "*"
		}
		return fmt.Sprintf("(%s%s%s)", fmtTerm(x.A), op, fmtTerm(x.B))
	}
	panic(fmt.Sprintf("unknown term %T", t))
}

// rendered runs render, reporting a panic instead of its result.
func rendered(render func() string) (s string, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return render(), false
}

// checkKey compares a spec's key, constraint and condition renderings
// with their fmt forms; a panic on one side must be a panic on the other.
func checkKey(t *testing.T, s *spec.Spec) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want func() string
	}{
		{"Key", s.Key, func() string { return fmtKey(s) }},
		{"Constraint.String", s.Constraint.String, func() string { return fmtConstraint(s.Constraint) }},
		{"solver.String", func() string { return solver.String(s.Constraint.Rel.Cond) }, func() string { return fmtCond(s.Constraint.Rel.Cond) }},
	} {
		got, gotPanic := rendered(c.got)
		want, wantPanic := rendered(c.want)
		if got != want || gotPanic != wantPanic {
			t.Fatalf("%s = %q (panicked %t), fmt form %q (panicked %t)", c.what, got, gotPanic, want, wantPanic)
		}
	}
}

// TestSpecKeyMatchesFmt checks Spec.Key against its fmt form over inferred
// specs (a kernelgen evaluation corpus and randprog patch cases), their
// one-field mutations, every value and use kind, and random conditions
// that exercise every formula and term shape.
func TestSpecKeyMatchesFmt(t *testing.T) {
	specs := inferredSpecs(t)
	for _, s := range specs {
		checkKey(t, s)
		for _, m := range mutations(t, s) {
			checkKey(t, m.spec)
		}
	}
	base := fullSpec()
	for _, forbidden := range []bool{false, true} {
		for _, rel := range []spec.RelKind{spec.RelReach, spec.RelOrder, spec.RelOrder + 1} {
			for kind := 0; kind <= int(spec.UParamStore)+1; kind++ {
				cp := *base
				cp.Iface = []string{"", "ops.probe"}[kind%2]
				c := &cp.Constraint
				c.Forbidden, c.Rel.Kind = forbidden, rel
				c.Rel.V.Kind = spec.ValueKind(kind % (int(spec.VUninit) + 2))
				c.Rel.U.Kind, c.Rel.U1.Kind, c.Rel.U2.Kind = spec.UseKind(kind), spec.UseKind(kind), spec.UseKind(kind)
				checkKey(t, &cp)
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		cp := *base
		cp.Constraint.Rel.Kind = spec.RelReach
		cp.Constraint.Rel.Cond = randCond(r, 3)
		checkKey(t, &cp)
	}
}

// TestDedupKeepsFirstByKey checks Dedup against a fmt-keyed reference over
// inferred specs with every spec repeated.
func TestDedupKeepsFirstByKey(t *testing.T) {
	specs := inferredSpecs(t)
	db := &spec.DB{Specs: append(append([]*spec.Spec(nil), specs...), specs...)}
	seen := map[string]bool{}
	var want []*spec.Spec
	for _, s := range db.Specs {
		if k := fmtKey(s); !seen[k] {
			seen[k] = true
			want = append(want, s)
		}
	}
	db.Dedup()
	if len(db.Specs) != len(want) {
		t.Fatalf("Dedup kept %d specs, the fmt-keyed reference %d", len(db.Specs), len(want))
	}
	for i := range want {
		if db.Specs[i] != want[i] {
			t.Fatalf("spec %d: Dedup kept %s, the reference %s", i, db.Specs[i], want[i])
		}
	}
}
