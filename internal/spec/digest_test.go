package spec_test

import (
	"math/rand"
	"reflect"
	"testing"

	"seal/internal/infer"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
	"seal/internal/solver"
	"seal/internal/spec"
)

// The spec-set digest (DB.Hash) replaced a SHA-256 of MarshalJSON as the
// spec side of every region-group cache key. These tests hold it to the
// JSON form it stands in for: two specs digest alike exactly when their
// MarshalJSON bytes agree.

func digestOf(s *spec.Spec) string { return (&spec.DB{Specs: []*spec.Spec{s}}).Hash() }

func jsonOf(t testing.TB, s *spec.Spec) string {
	t.Helper()
	data, err := (&spec.DB{Specs: []*spec.Spec{s}}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// oracle checks specs pairwise, through two maps, for "digests equal ⇔
// JSON equal".
type oracle struct {
	byJSON   map[string]string // JSON -> digest
	byDigest map[string]string // digest -> JSON
}

func newOracle() *oracle {
	return &oracle{byJSON: map[string]string{}, byDigest: map[string]string{}}
}

func (o *oracle) add(t testing.TB, s *spec.Spec) {
	t.Helper()
	j, d := jsonOf(t, s), digestOf(s)
	if prev, ok := o.byJSON[j]; ok && prev != d {
		t.Fatalf("equal JSON, different digests:\n%s", j)
	}
	if prev, ok := o.byDigest[d]; ok && prev != j {
		t.Fatalf("different JSON, equal digests:\n%s\n%s", prev, j)
	}
	o.byJSON[j], o.byDigest[d] = d, j
}

// inferredSpecs infers the specs of a kernelgen evaluation corpus and of
// a few randprog patch cases.
func inferredSpecs(t *testing.T) []*spec.Spec {
	t.Helper()
	patches := kernelgen.Generate(kernelgen.EvalConfig()).Patches
	for seed := int64(0); seed < 8; seed++ {
		patches = append(patches, randprog.GenPatchCase(seed).Patch)
	}
	var specs []*spec.Spec
	for _, p := range patches {
		a, err := p.Analyze()
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		specs = append(specs, infer.InferPatch(a).Specs...)
	}
	if len(specs) < 100 {
		t.Fatalf("only %d inferred specs", len(specs))
	}
	return specs
}

// fullSpec sets every field of Spec, Constraint, Relation, Value and Use,
// so each one-field mutation moves a value off a non-zero base.
func fullSpec() *spec.Spec {
	return &spec.Spec{
		ID: "p/S1", Iface: "ops.probe", API: "kmalloc",
		Constraint: spec.Constraint{Forbidden: true, Rel: spec.Relation{
			Kind:     spec.RelOrder,
			V:        spec.Value{Kind: spec.VIfaceArg, Iface: "ops.probe", ArgIndex: 2, API: "a", Global: "g", Lit: -12, Field: "@8"},
			U:        spec.Use{Kind: spec.UAPIArg, API: "kfree", ArgIndex: 1, Iface: "i", Global: "g"},
			U1:       spec.Use{Kind: spec.UDeref, API: "b", ArgIndex: 3, Iface: "j", Global: "h"},
			U2:       spec.Use{Kind: spec.UParamStore, API: "c", ArgIndex: 4, Iface: "k", Global: "m"},
			Cond:     solver.Atom{Op: solver.OpEq, A: solver.Sym{Name: "ret[kmalloc]"}, B: solver.Const{Val: 0}},
			CondJSON: &spec.CondNode{Op: "true"},
		}},
		Origin: spec.OriginOrder, OriginPatch: "p",
	}
}

// mutation is one spec that differs from its base in one field.
type mutation struct {
	field string
	spec  *spec.Spec
}

// mutations returns, for every leaf field reachable from a Spec through
// the package's struct types, a copy of base with that field changed.
// A field of a kind the walk cannot change fails the test, so a new field
// is either covered here or noticed.
func mutations(t *testing.T, base *spec.Spec) []mutation {
	t.Helper()
	var out []mutation
	var walk func(path []int, typ reflect.Type, name string)
	walk = func(path []int, typ reflect.Type, name string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := append(append([]int(nil), path...), i)
			fname := name + "." + f.Name
			if f.Type.Kind() == reflect.Struct && f.Type.PkgPath() == reflect.TypeOf(spec.Spec{}).PkgPath() {
				walk(at, f.Type, fname)
				continue
			}
			cp := *base
			v := reflect.ValueOf(&cp).Elem().FieldByIndex(at)
			switch v.Kind() {
			case reflect.String:
				v.SetString(v.String() + "x")
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Interface: // Cond
				v.Set(reflect.ValueOf(solver.Formula(solver.FalseF{})))
			case reflect.Pointer: // CondJSON
				v.Set(reflect.ValueOf(&spec.CondNode{Op: "false"}))
			default:
				t.Fatalf("field %s has kind %s, which the mutation walk cannot change", fname, v.Kind())
			}
			out = append(out, mutation{fname, &cp})
		}
	}
	walk(nil, reflect.TypeOf(spec.Spec{}), "Spec")
	return out
}

// TestSpecDigestMatchesJSON checks the digest against MarshalJSON over
// inferred specs (a kernelgen evaluation corpus and randprog patch cases),
// their one-field mutations, their JSON round trips, and random
// conditions that exercise every formula and term fallback.
func TestSpecDigestMatchesJSON(t *testing.T) {
	specs := inferredSpecs(t)
	t.Logf("%d inferred specs", len(specs))
	o := newOracle()
	for _, s := range specs {
		o.add(t, s)
		for _, m := range mutations(t, s) {
			o.add(t, m.spec)
		}
	}
	// A database hashes alike in memory and after a JSON round trip (the
	// flat file) — the property the cache keys of warm runs rely on.
	db := &spec.DB{Specs: specs}
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back spec.DB
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if db.Hash() != back.Hash() {
		t.Fatal("DB hash changed across a JSON round trip")
	}
	for _, s := range back.Specs {
		o.add(t, s)
	}
	r := rand.New(rand.NewSource(1))
	base := fullSpec()
	for i := 0; i < 5000; i++ {
		cp := *base
		cp.Constraint.Rel.Cond = randCond(r, 3)
		o.add(t, &cp)
	}
}

// TestSpecDigestCoversEveryField changes each field of a spec in turn: the
// digest must change exactly when the spec's JSON does, and every field
// but CondJSON (which MarshalJSON rebuilds from Cond) must change the JSON.
// A field added to Spec, Constraint, Relation, Value or Use without a
// place in the digest fails here.
func TestSpecDigestCoversEveryField(t *testing.T) {
	base := fullSpec()
	baseJSON, baseDigest := jsonOf(t, base), digestOf(base)
	for _, m := range mutations(t, base) {
		jsonChanged := jsonOf(t, m.spec) != baseJSON
		digestChanged := digestOf(m.spec) != baseDigest
		if jsonChanged != digestChanged {
			t.Errorf("%s: JSON changed %t, digest changed %t", m.field, jsonChanged, digestChanged)
		}
		if !jsonChanged && m.field != "Spec.Constraint.Rel.CondJSON" {
			t.Errorf("%s: changing it leaves the JSON unchanged", m.field)
		}
	}
}

// FuzzSpecDigest decodes fuzzed spec databases and checks the digest
// against MarshalJSON across their specs, their JSON round trips and
// their one-field mutations.
func FuzzSpecDigest(f *testing.F) {
	for _, s := range []*spec.Spec{fullSpec(), {ID: "a"}, {}} {
		data, err := (&spec.DB{Specs: []*spec.Spec{s, s}}).MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"specs":[{"id":"x","constraint":{"rel":{"cond":{"op":"and","kids":[{"op":"atom","cmp":"<","a":{"sym":""},"b":{"op":"mul","a":{"c":3}}}]}}}},{"id":"x","constraint":{"rel":{"cond":{"op":"atom","cmp":"<","a":{},"b":{"op":"mul","a":{"c":3},"b":{"c":0}}}}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			t.Skip("oversized input")
		}
		var db spec.DB
		if err := db.UnmarshalJSON(data); err != nil {
			return
		}
		o := newOracle()
		for _, s := range db.Specs {
			if s == nil {
				t.Skip("null spec") // MarshalJSON, like Hash, requires specs
			}
			o.add(t, s)
			for _, m := range mutations(t, s) {
				o.add(t, m.spec)
			}
		}
		out, err := db.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back spec.DB
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		for _, s := range back.Specs {
			o.add(t, s)
		}
	})
}

// randCond draws a formula over every node and term shape the digest
// encodes, including the values CondToNode maps to a fallback (nil
// formulas and terms, unknown operators, the empty symbol).
func randCond(r *rand.Rand, depth int) solver.Formula {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return solver.TrueF{}
		case 2:
			return solver.FalseF{}
		}
		return solver.Atom{Op: solver.CmpOp(r.Intn(7)), A: randTerm(r, 2), B: randTerm(r, 2)}
	}
	kids := make([]solver.Formula, r.Intn(3))
	for i := range kids {
		kids[i] = randCond(r, depth-1)
	}
	switch r.Intn(4) {
	case 0:
		return solver.Not{F: randCond(r, depth-1)}
	case 1:
		return solver.And{Fs: kids}
	case 2:
		return solver.Or{Fs: kids}
	}
	return randCond(r, 0)
}

func randTerm(r *rand.Rand, depth int) solver.Term {
	switch n := r.Intn(6); {
	case n == 0:
		return nil
	case n == 1:
		return solver.Const{Val: int64(r.Intn(3)) - 1}
	case n == 2 || depth == 0:
		return solver.Sym{Name: []string{"", "?", "x", "ret[f]"}[r.Intn(4)]}
	}
	return solver.BinTerm{Op: solver.TermOp(r.Intn(4)), A: randTerm(r, depth-1), B: randTerm(r, depth-1)}
}
