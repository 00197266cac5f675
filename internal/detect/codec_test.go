package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"seal/internal/budget"
	"seal/internal/solver"
)

// fillDistinct sets every leaf of v to a distinct non-zero value (bools to
// true), giving each slice two elements. Failures and Degraded are left
// empty: they have no binary form.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		*n++
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int64:
		*n++
		v.SetInt(int64(*n) * 1009)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name == "Failures" || name == "Degraded" {
				continue
			}
			fillDistinct(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDistinct(t, v.Index(i), n)
		}
	default:
		t.Fatalf("fillDistinct: %s has kind %s; teach the codec and this test about it", v.Type(), v.Kind())
	}
}

// TestOutcomeCodecCoversEveryField round-trips an outcome whose every
// ShardBug, BugRec, UnitRec, Stats and solver.Tally field holds its own
// value: the decoded outcome must be exactly its Findings, so a finding the
// codec forgets, two it swaps, or a work counter it stores fails here.
func TestOutcomeCodecCoversEveryField(t *testing.T) {
	var o Outcome
	n := 0
	fillDistinct(t, reflect.ValueOf(&o).Elem(), &n)
	o.Bugs[1].Rec.TraceTruncated = false // the two flags must not swap
	data, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Outcome
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if want := o.Findings(); !reflect.DeepEqual(&got, want) {
		t.Fatalf("round trip is not the findings:\n got %+v\nwant %+v", got, *want)
	}
	again, err := got.MarshalBinary()
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("encoding is not deterministic (err %v)", err)
	}
}

func TestOutcomeCodecEmpty(t *testing.T) {
	data, err := (&Outcome{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := Outcome{Units: []UnitRec{{ID: "stale"}}}
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, Outcome{}) {
		t.Fatalf("empty outcome decoded as %+v", got)
	}
}

// TestOutcomeCodecSharesStrings checks that a string repeated across a
// group's bugs is stored once.
func TestOutcomeCodecSharesStrings(t *testing.T) {
	constraint := strings.Repeat("ret(kmalloc) != NULL ", 10)
	var o Outcome
	for i := 0; i < 50; i++ {
		o.Bugs = append(o.Bugs, ShardBug{Key: fmt.Sprint(i), Rec: BugRec{SpecConstraint: constraint, SpecScope: "api:kmalloc"}})
	}
	data, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 2*len(constraint)+50*(minBugBytes+2) {
		t.Fatalf("%d bytes for 50 bugs sharing one %d-byte constraint", len(data), len(constraint))
	}
}

func TestOutcomeCodecRefusesPartialOutcomes(t *testing.T) {
	for name, o := range map[string]*Outcome{
		"failures": {Failures: []*budget.FailureRecord{{Unit: "g", Reason: "panic"}}},
		"degraded": {Degraded: []budget.Degradation{{Unit: "g"}}},
	} {
		if data, err := o.MarshalBinary(); err == nil {
			t.Errorf("%s: outcome encoded to %d bytes, want a refusal", name, len(data))
		}
	}
}

func TestOutcomeCodecRejectsDamage(t *testing.T) {
	o := Outcome{
		Bugs:  []ShardBug{{Key: "k", SpecID: "s", Ord: 1, Rec: BugRec{Kind: "missing-check", Fn: "f"}}},
		Units: []UnitRec{{ID: "api:f", Specs: 1, Bugs: 1}},
	}
	data, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"trailing":   append(append([]byte(nil), data...), 0),
		"truncated":  data[:len(data)-1],
		"empty":      nil,
		"huge-count": {0xff, 0xff, 0xff, 0xff, 0x0f},
		"bad-index":  {0, 1, 9}, // no strings, one bug naming string 9
	} {
		var got Outcome
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: decoded %+v", name, got)
		}
	}
}

// FuzzOutcomeCodec: no input panics; decoding allocates at most a fixed
// multiple of the input's length; and whatever decodes re-encodes to bytes
// that decode to an equal outcome. The checked-in seeds are region-group
// entries of a cold-batch detection (go run ./internal/difftest/gencorpus).
func FuzzOutcomeCodec(f *testing.F) {
	seed, err := (&Outcome{
		Bugs:   []ShardBug{{Key: "k", SpecID: "s", Ord: 2, Rec: BugRec{Kind: "k", Fn: "f", Trace: "a -> b", TraceTruncated: true}}},
		Units:  []UnitRec{{ID: "api:f", Specs: 3, Bugs: 1}},
		Solver: solver.Tally{Checks: 7},
	}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var o Outcome
		err := o.UnmarshalBinary(data)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > uint64(64*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := o.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded outcome does not re-encode: %v", err)
		}
		var o2 Outcome
		if err := o2.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded outcome does not decode: %v", err)
		}
		if !reflect.DeepEqual(o, o2) {
			t.Fatalf("re-encoding changed the outcome:\n%+v\n%+v", o, o2)
		}
	})
}
