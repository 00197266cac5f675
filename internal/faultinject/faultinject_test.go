package faultinject

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFireDisabledIsCheap(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("no plan installed but Enabled() = true")
	}
	if err := Fire(context.Background(), "detect", "u", nil); err != nil {
		t.Fatalf("Fire with no plan: %v", err)
	}
}

func TestFirePanic(t *testing.T) {
	Set(NewPlan().Add("detect", "u1", KindPanic))
	defer Reset()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("planned panic did not fire")
		}
		if s, _ := r.(string); !strings.Contains(s, "u1") {
			t.Fatalf("panic value %v does not name the unit", r)
		}
	}()
	_ = Fire(context.Background(), "detect", "u1", nil)
}

func TestFireStallRespectsContext(t *testing.T) {
	plan := NewPlan().Add("detect", "u1", KindStall)
	Set(plan)
	defer Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Fire(ctx, "detect", "u1", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall returned %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("stall ignored the context for %v", el)
	}
	if fired := plan.Fired(); len(fired) != 1 || fired[0].Kind != KindStall {
		t.Fatalf("Fired() = %v", fired)
	}
}

func TestFireStallCapBoundsRunawayWait(t *testing.T) {
	plan := NewPlan().Add("detect", "u1", KindStall)
	plan.StallCap = 10 * time.Millisecond
	Set(plan)
	defer Reset()
	// No deadline on the context: the cap must still unblock the stall
	// (with a loud error, since a stall outliving the unit deadline means
	// the harness is misconfigured).
	start := time.Now()
	err := Fire(context.Background(), "detect", "u1", nil)
	if err == nil || !strings.Contains(err.Error(), "outlived its cap") {
		t.Fatalf("capped stall returned %v", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("stall cap did not unblock for %v", el)
	}
}

func TestFireMatchesStageAndUnit(t *testing.T) {
	plan := NewPlan().Add("detect", "u1", KindPanic)
	Set(plan)
	defer Reset()
	if err := Fire(context.Background(), "infer", "u1", nil); err != nil {
		t.Fatalf("wrong stage fired: %v", err)
	}
	if err := Fire(context.Background(), "detect", "u2", nil); err != nil {
		t.Fatalf("wrong unit fired: %v", err)
	}
	if len(plan.Fired()) != 0 {
		t.Fatalf("non-matching lookups recorded firings: %v", plan.Fired())
	}
}

func TestPlanFromSeedDeterministic(t *testing.T) {
	units := []string{"e", "d", "c", "b", "a"}
	p1 := PlanFromSeed(42, "detect", units, 2, 1)
	p2 := PlanFromSeed(42, "detect", units, 2, 1)
	if !reflect.DeepEqual(p1.faults, p2.faults) {
		t.Fatalf("same seed, different plans: %v vs %v", p1.faults, p2.faults)
	}
	nPanic, nStall := 0, 0
	for _, k := range p1.faults {
		switch k {
		case KindPanic:
			nPanic++
		case KindStall:
			nStall++
		}
	}
	if nPanic != 2 || nStall != 1 {
		t.Fatalf("plan has %d panics, %d stalls; want 2, 1", nPanic, nStall)
	}
	// A different seed should (for this universe) pick a different unit set.
	p3 := PlanFromSeed(43, "detect", units, 2, 1)
	if reflect.DeepEqual(p1.faults, p3.faults) {
		t.Log("seeds 42 and 43 chose the same units; suspicious but not fatal")
	}
	// Order of the input universe must not matter.
	p4 := PlanFromSeed(42, "detect", []string{"a", "b", "c", "d", "e"}, 2, 1)
	if !reflect.DeepEqual(p1.faults, p4.faults) {
		t.Fatalf("unit order changed the plan: %v vs %v", p1.faults, p4.faults)
	}
}

func TestFiredUnitsAndOrdering(t *testing.T) {
	plan := NewPlan().
		Add("detect", "z", KindPanic).
		Add("detect", "a", KindStall).
		Add("infer", "m", KindPanic)
	plan.StallCap = time.Millisecond
	Set(plan)
	defer Reset()
	func() {
		defer func() { _ = recover() }()
		_ = Fire(context.Background(), "detect", "z", nil)
	}()
	_ = Fire(context.Background(), "detect", "a", nil)
	func() {
		defer func() { _ = recover() }()
		_ = Fire(context.Background(), "infer", "m", nil)
	}()
	fired := plan.Fired()
	if len(fired) != 3 {
		t.Fatalf("Fired() = %v", fired)
	}
	// Sorted by stage then unit.
	want := []Record{
		{Stage: "detect", Unit: "a", Kind: KindStall},
		{Stage: "detect", Unit: "z", Kind: KindPanic},
		{Stage: "infer", Unit: "m", Kind: KindPanic},
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("Fired() = %v, want %v", fired, want)
	}
	du := plan.FiredUnits("detect")
	if len(du) != 2 || !du["a"] || !du["z"] {
		t.Fatalf("FiredUnits(detect) = %v", du)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindPanic: "panic", KindStall: "stall", KindAllocSpike: "alloc-spike"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}
