package spec

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"seal/internal/solver"
)

func sampleSpec() *Spec {
	return &Spec{
		ID:    "p1/S1",
		Iface: "vb2_ops.buf_prepare",
		API:   "dma_alloc_coherent",
		Constraint: Constraint{
			Forbidden: false,
			Rel: Relation{
				Kind: RelReach,
				V:    Value{Kind: VLiteral, Lit: -12},
				U:    Use{Kind: UIfaceRet, Iface: "vb2_ops.buf_prepare"},
				Cond: solver.Atom{
					Op: solver.OpEq,
					A:  solver.Sym{Name: "ret[dma_alloc_coherent]"},
					B:  solver.Const{Val: 0},
				},
			},
		},
		Origin:      OriginAdded,
		OriginPatch: "p1",
	}
}

func TestValueKeys(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{Kind: VIfaceArg, Iface: "ops.f", ArgIndex: 2}, "arg2[ops.f]"},
		{Value{Kind: VIfaceArg, Iface: "ops.f", ArgIndex: 1, Field: "@8"}, "arg1[ops.f]@8"},
		{Value{Kind: VAPIRet, API: "kmalloc"}, "ret[kmalloc]"},
		{Value{Kind: VGlobal, Global: "shared"}, "global[shared]"},
		{Value{Kind: VLiteral, Lit: -12}, "lit[-12]"},
		{Value{Kind: VUninit}, "uninit"},
	}
	for _, c := range cases {
		if got := c.v.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestUseKeys(t *testing.T) {
	cases := []struct {
		u    Use
		want string
	}{
		{Use{Kind: UAPIArg, API: "kfree", ArgIndex: 0}, "arg0[kfree]"},
		{Use{Kind: UIfaceRet, Iface: "ops.f"}, "ret[ops.f]"},
		{Use{Kind: UGlobalStore, Global: "g"}, "store[g]"},
		{Use{Kind: UDeref}, "deref"},
		{Use{Kind: UIndex}, "index"},
		{Use{Kind: UDiv}, "div"},
		{Use{Kind: UParamStore, Iface: "ops.f", ArgIndex: 1}, "pstore1[ops.f]"},
	}
	for _, c := range cases {
		if got := c.u.Key(); got != c.want {
			t.Errorf("Key(%+v) = %q, want %q", c.u, got, c.want)
		}
	}
}

func TestSpecScope(t *testing.T) {
	s := sampleSpec()
	if got := s.Scope(); got != "iface:vb2_ops.buf_prepare" {
		t.Errorf("Scope() = %q", got)
	}
	s.Iface = ""
	if got := s.Scope(); got != "api:dma_alloc_coherent" {
		t.Errorf("API scope = %q", got)
	}
}

func TestDBDedup(t *testing.T) {
	a, b := sampleSpec(), sampleSpec()
	c := sampleSpec()
	c.Constraint.Forbidden = true
	db := &DB{Specs: []*Spec{a, b, c}}
	db.Dedup()
	if len(db.Specs) != 2 {
		t.Fatalf("dedup kept %d specs, want 2", len(db.Specs))
	}
}

// TestDBDecodeRejectsNullEntries: a null in the specs array fails the
// decode with an error naming its index; well-formed inputs still decode.
func TestDBDecodeRejectsNullEntries(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr string // "" = decodes
		specs   int
	}{
		{`{"specs":[null]}`, "spec entry 0 is null", 0},
		{`{"specs":[{"id":"a"},null]}`, "spec entry 1 is null", 0},
		{`{"specs":[null,{"id":"b"}]}`, "spec entry 0 is null", 0},
		{`{"specs":[]}`, "", 0},
		{`{"specs":null}`, "", 0},
		{`{"specs":[{"id":"a"},{"id":"b"}]}`, "", 2},
	} {
		var db DB
		err := json.Unmarshal([]byte(tc.in), &db)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%s: %v, want a clean decode", tc.in, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%s: error %v, want %q", tc.in, err, tc.wantErr)
		}
		if tc.wantErr == "" && len(db.Specs) != tc.specs {
			t.Errorf("%s: decoded %d specs, want %d", tc.in, len(db.Specs), tc.specs)
		}
	}
}

func TestJSONRoundTripPreservesCondition(t *testing.T) {
	db := &DB{Specs: []*Spec{sampleSpec()}}
	data, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	var back DB
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Specs) != 1 {
		t.Fatal("lost spec")
	}
	orig := db.Specs[0].Constraint.Rel.Cond
	got := back.Specs[0].Constraint.Rel.Cond
	if !solver.Equiv(orig, got) {
		t.Errorf("condition changed: %s vs %s", solver.String(orig), solver.String(got))
	}
	if back.Specs[0].Key() != db.Specs[0].Key() {
		t.Errorf("spec key changed: %q vs %q", back.Specs[0].Key(), db.Specs[0].Key())
	}
}

// randFormula builds random formulas for the round-trip property test.
func randFormula(r *rand.Rand, depth int) solver.Formula {
	if depth == 0 || r.Intn(3) == 0 {
		mk := func() solver.Term {
			switch r.Intn(3) {
			case 0:
				return solver.Const{Val: int64(r.Intn(11) - 5)}
			case 1:
				return solver.Sym{Name: string(rune('a' + r.Intn(4)))}
			default:
				return solver.BinTerm{
					Op: solver.TermOp(r.Intn(3)),
					A:  solver.Sym{Name: "x"},
					B:  solver.Const{Val: int64(r.Intn(5))},
				}
			}
		}
		ops := []solver.CmpOp{solver.OpEq, solver.OpNe, solver.OpLt, solver.OpLe, solver.OpGt, solver.OpGe}
		return solver.Atom{Op: ops[r.Intn(len(ops))], A: mk(), B: mk()}
	}
	switch r.Intn(3) {
	case 0:
		return solver.MkAnd(randFormula(r, depth-1), randFormula(r, depth-1))
	case 1:
		return solver.MkOr(randFormula(r, depth-1), randFormula(r, depth-1))
	default:
		return solver.MkNot(randFormula(r, depth-1))
	}
}

// Property: CondToNode/NodeToCond round-trips preserve evaluation under
// arbitrary assignments.
func TestCondNodeRoundTripProperty(t *testing.T) {
	check := func(seed int64, a, b, c, d int8) bool {
		r := rand.New(rand.NewSource(seed))
		f := randFormula(r, 3)
		g := NodeToCond(CondToNode(f))
		env := map[string]int64{
			"a": int64(a), "b": int64(b), "c": int64(c), "d": int64(d),
			"x": int64(a) + int64(b),
		}
		return solver.Eval(f, env) == solver.Eval(g, env)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: DB encoding is idempotent — marshal(unmarshal(marshal(db)))
// is byte-identical to marshal(db) under arbitrary conditions. The
// persistent analysis cache depends on this: a warm run writes a spec
// database decoded from a cache entry, and the file must match the cold
// run's byte for byte.
func TestDBEncodeIdempotentProperty(t *testing.T) {
	check := func(seed int64, forbidden bool) bool {
		r := rand.New(rand.NewSource(seed))
		s := sampleSpec()
		s.Constraint.Forbidden = forbidden
		s.Constraint.Rel.Cond = randFormula(r, 3)
		db := &DB{Specs: []*Spec{s}}
		first, err := json.Marshal(db)
		if err != nil {
			return false
		}
		var back DB
		if err := json.Unmarshal(first, &back); err != nil {
			return false
		}
		second, err := json.Marshal(&back)
		if err != nil {
			return false
		}
		return string(first) == string(second)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFieldString(t *testing.T) {
	if got := FieldString(nil); got != "" {
		t.Errorf("FieldString(nil) = %q", got)
	}
	if got := FieldString([]int{8}); got != "@8" {
		t.Errorf("got %q", got)
	}
	if got := FieldString([]int{0, -1}); got != "@0@*" {
		t.Errorf("got %q", got)
	}
}

func TestConstraintString(t *testing.T) {
	s := sampleSpec()
	str := s.Constraint.String()
	if len(str) == 0 || str[0] == ' ' {
		t.Errorf("constraint string: %q", str)
	}
	forbidden := Constraint{Forbidden: true, Rel: s.Constraint.Rel}
	if forbidden.String()[:3] != "∄" {
		t.Errorf("forbidden constraint should render with ∄: %q", forbidden.String())
	}
}
