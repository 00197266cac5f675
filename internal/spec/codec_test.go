package spec_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"seal/internal/solver"
	"seal/internal/spec"
)

// The binary form (MarshalBinary, the infer cache tier's payload and the
// bytes Hash digests) and the one-pass specs.json writer (MarshalIndent)
// both stand in for the JSON codec. These tests hold them to it over the
// digest tests' inputs.

// codecInputs returns one-spec databases over inferred specs, their
// one-field mutations, 5,000 random conditions, and strings that JSON
// escapes; all strings are valid UTF-8, so each DB's JSON round trip keeps
// every byte.
func codecInputs(t *testing.T) []*spec.DB {
	t.Helper()
	var specs []*spec.Spec
	for _, s := range inferredSpecs(t) {
		specs = append(specs, s)
		for _, m := range mutations(t, s) {
			specs = append(specs, m.spec)
		}
	}
	base := fullSpec()
	for _, m := range mutations(t, base) {
		specs = append(specs, m.spec)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		cp := *base
		cp.Constraint.Rel.Cond = randCond(r, 3)
		specs = append(specs, &cp)
	}
	escaped := *base
	escaped.ID = "<a href=\"x\">&</a>\\\b\f\n\r\t\x00\x1f\x7f \u00e9 \u2028\u2029 \U0001F600"
	escaped.Constraint.Rel.Cond = solver.Atom{Op: solver.OpLt, A: solver.Sym{Name: escaped.ID}, B: solver.Const{Val: -1 << 63}}
	specs = append(specs, &escaped)

	dbs := []*spec.DB{{}, {Specs: []*spec.Spec{}}, {Specs: specs}}
	for _, s := range specs {
		dbs = append(dbs, &spec.DB{Specs: []*spec.Spec{s}})
	}
	return dbs
}

func jsonRoundTrip(t testing.TB, db *spec.DB) *spec.DB {
	t.Helper()
	data, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back spec.DB
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	return &back
}

func binaryRoundTrip(t testing.TB, db *spec.DB) (*spec.DB, []byte) {
	t.Helper()
	data, err := db.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back spec.DB
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatalf("decode of MarshalBinary output: %v", err)
	}
	return &back, data
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSpecBinaryMatchesJSON checks that a binary round trip decodes to
// exactly what the JSON round trip does, and that Hash is the SHA-256 of
// the binary form.
func TestSpecBinaryMatchesJSON(t *testing.T) {
	for _, db := range codecInputs(t) {
		back, data := binaryRoundTrip(t, db)
		if want := jsonRoundTrip(t, db); !reflect.DeepEqual(back, want) {
			t.Fatalf("binary and JSON round trips differ:\nbinary %#v\nJSON   %#v", back, want)
		}
		if db.Hash() != sha256Hex(data) {
			t.Fatal("Hash is not the SHA-256 of MarshalBinary")
		}
	}
	// A truncated form, trailing bytes and a bad tag are errors, and leave
	// the receiver as it was.
	data, err := (&spec.DB{Specs: []*spec.Spec{fullSpec()}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	keep := &spec.DB{Specs: []*spec.Spec{{ID: "keep"}}}
	for _, bad := range [][]byte{nil, data[:len(data)-1], append(append([]byte(nil), data...), 0), {1, 0}} {
		got := *keep
		if err := got.UnmarshalBinary(bad); err == nil || got.Specs[0].ID != "keep" {
			t.Fatalf("%q: err %v, receiver %v", bad, err, got.Specs)
		}
	}
	if _, err := (&spec.DB{Specs: []*spec.Spec{nil}}).MarshalBinary(); err == nil {
		t.Fatal("a null spec encoded")
	}
}

// TestSpecWriterMatchesMarshalIndent checks the one-pass specs.json writer
// against json.MarshalIndent, byte for byte, on the same inputs plus
// strings with invalid UTF-8.
func TestSpecWriterMatchesMarshalIndent(t *testing.T) {
	dbs := codecInputs(t)
	bad := fullSpec()
	bad.ID, bad.OriginPatch = "a\xffb\xc3", "\xe2\x80"
	bad.Constraint.Rel.Cond = solver.Atom{Op: solver.OpNe, A: solver.Sym{Name: "\xed\xa0\x80"}, B: nil}
	dbs = append(dbs, &spec.DB{Specs: []*spec.Spec{bad, fullSpec()}})
	for _, db := range dbs {
		checkWriter(t, db)
	}
	if _, err := (&spec.DB{Specs: []*spec.Spec{nil}}).MarshalIndent(); err == nil {
		t.Fatal("a null spec written")
	}
}

func checkWriter(t testing.TB, db *spec.DB) {
	t.Helper()
	want, err := json.MarshalIndent(db, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("writer output differs from json.MarshalIndent:\ngot  %s\nwant %s", got, want)
	}
}

// FuzzSpecBinary decodes arbitrary bytes: a decode must not panic or
// allocate more than a fixed multiple of its input, and an accepted input
// must re-encode to a form that decodes to the same DB and hashes as its
// SHA-256.
func FuzzSpecBinary(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for _, s := range []*spec.Spec{fullSpec(), {ID: "a"}, {}} {
		cp := *s
		cp.Constraint.Rel.Cond = randCond(r, 3)
		data, err := (&spec.DB{Specs: []*spec.Spec{s, &cp}}).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			t.Skip("oversized input")
		}
		var db spec.DB
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := db.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		back, enc := binaryRoundTrip(t, &db)
		if !reflect.DeepEqual(back, &db) {
			t.Fatalf("re-encoded DB decodes differently:\n%#v\n%#v", back, &db)
		}
		if db.Hash() != sha256Hex(enc) {
			t.Fatal("Hash is not the SHA-256 of MarshalBinary")
		}
	})
}

// checkReplay holds a database decoded from JSON to what the spec replay
// cache tier stores and serves in its place: its binary form must decode,
// and the decoded database must re-encode to the same binary form and
// write the same specs.json bytes.
func checkReplay(t testing.TB, db *spec.DB) {
	t.Helper()
	back, bin := binaryRoundTrip(t, db)
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(bin) {
		t.Fatal("the binary round trip changed the binary form")
	}
	want, err := db.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("the binary round trip changed the specs.json bytes:\ngot  %s\nwant %s", got, want)
	}
}

// FuzzSpecIndentJSON checks the writer against json.MarshalIndent on
// databases decoded from fuzzed JSON and from fuzzed binary forms, and on
// a spec whose strings are the raw fuzzed bytes. A database decoded from
// JSON must also survive the binary round trip the spec replay tier puts
// it through (checkReplay).
func FuzzSpecIndentJSON(f *testing.F) {
	for _, s := range []*spec.Spec{fullSpec(), {ID: "a"}, {}} {
		data, err := (&spec.DB{Specs: []*spec.Spec{s, s}}).MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("<\u2028\xff&\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			t.Skip("oversized input")
		}
		var fromJSON, fromBinary spec.DB
		if fromJSON.UnmarshalJSON(data) == nil {
			checkWriter(t, &fromJSON)
			checkReplay(t, &fromJSON)
		}
		if fromBinary.UnmarshalBinary(data) == nil {
			checkWriter(t, &fromBinary)
		}
		raw := fullSpec()
		raw.ID, raw.Iface = string(data), string(data)
		raw.Constraint.Rel.Cond = solver.Not{F: solver.Atom{A: solver.Sym{Name: string(data)}}}
		checkWriter(t, &spec.DB{Specs: []*spec.Spec{raw}})
	})
}
