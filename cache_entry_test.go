package seal

import (
	"reflect"
	"testing"

	"seal/internal/solver"
	"seal/internal/spec"
)

// openTestCache opens the unbounded, writable persistent cache under dir
// (nil for ""), failing the test when it cannot.
func openTestCache(tb testing.TB, dir string) *Cache {
	tb.Helper()
	c, err := OpenCache(dir, false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestInferCacheEntryCodec round-trips an infer cache entry whose every
// counter holds a distinct value, so a Stats field or the check count left
// out of the binary form, or a memo hit/miss count kept in it, fails here,
// and checks that a short or overlong payload does not decode.
func TestInferCacheEntryCodec(t *testing.T) {
	in := inferCacheEntry{DB: SpecDB{Specs: []*Spec{{
		ID: "p/S1", API: "kmalloc", Origin: "P+", OriginPatch: "p",
		Constraint: spec.Constraint{Rel: spec.Relation{Cond: solver.Atom{Op: solver.OpNe, A: solver.Sym{Name: "ret[kmalloc]"}, B: solver.Const{Val: 0}}}},
	}}}}
	n := int64(0)
	for _, s := range []reflect.Value{reflect.ValueOf(&in.Stats).Elem(), reflect.ValueOf(&in.Solver).Elem()} {
		for i := 0; i < s.NumField(); i++ {
			n++
			s.Field(i).SetInt(-n * 1000) // Int/Int64 fields only; anything else panics here
		}
	}
	data, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got inferCacheEntry
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	want := in
	want.Solver = solver.Tally{Checks: in.Solver.Checks}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	for _, bad := range [][]byte{data[:len(data)-1], append(data[:len(data):len(data)], 0)} {
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Fatalf("%d-byte payload of a %d-byte entry decoded", len(bad), len(data))
		}
	}
}
