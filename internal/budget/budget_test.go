package budget

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if err := b.Step(1 << 40); err != nil {
		t.Fatalf("nil Step: %v", err)
	}
	if err := b.Grow(1 << 40); err != nil {
		t.Fatalf("nil Grow: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
	if b.Exhausted() != nil {
		t.Fatal("nil Exhausted should be nil")
	}
	if b.Context() == nil {
		t.Fatal("nil Context should be Background, not nil")
	}
	if b.StepsSpent() != 0 || b.MemSpent() != 0 {
		t.Fatal("nil budget spent counters should be zero")
	}
	b.Close() // must not panic
}

func TestStepBudgetLatches(t *testing.T) {
	b := New(context.Background(), Limits{MaxSteps: 10})
	defer b.Close()
	if err := b.Step(10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := b.Step(1)
	var ex *ErrExhausted
	if !errors.As(err, &ex) || ex.Reason != ReasonSteps {
		t.Fatalf("over budget: got %v, want step-budget exhaustion", err)
	}
	// Latched: further charges keep returning the same first record.
	if err2 := b.Step(1); !errors.Is(err2, err) {
		t.Fatalf("second trip %v not latched to first %v", err2, err)
	}
	if got := b.Exhausted(); got == nil || got.Reason != ReasonSteps {
		t.Fatalf("Exhausted() = %v", got)
	}
}

func TestMemoryBudget(t *testing.T) {
	b := New(context.Background(), Limits{MaxMemBytes: 100})
	defer b.Close()
	if err := b.Grow(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := b.Grow(1)
	var ex *ErrExhausted
	if !errors.As(err, &ex) || ex.Reason != ReasonMemory {
		t.Fatalf("over budget: got %v, want memory-budget exhaustion", err)
	}
	if b.MemSpent() != 101 {
		t.Fatalf("MemSpent = %d", b.MemSpent())
	}
}

func TestDeadlineTripsStep(t *testing.T) {
	b := New(context.Background(), Limits{UnitTimeout: time.Millisecond})
	defer b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		// Charge past a deadline-check boundary each iteration.
		if err := b.Step(deadlineCheckInterval); err != nil {
			var ex *ErrExhausted
			if !errors.As(err, &ex) || ex.Reason != ReasonDeadline {
				t.Fatalf("got %v, want deadline exhaustion", err)
			}
			return
		}
	}
	t.Fatal("deadline never tripped Step")
}

func TestCancelTripsErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{UnitTimeout: time.Hour})
	defer b.Close()
	cancel()
	err := b.Err()
	var ex *ErrExhausted
	if !errors.As(err, &ex) || ex.Reason != ReasonCanceled {
		t.Fatalf("got %v, want canceled exhaustion", err)
	}
}

func TestHalved(t *testing.T) {
	l := Limits{UnitTimeout: 4 * time.Second, MaxSteps: 100, MaxMemBytes: 1, MaxPaths: 8, MaxDepth: 1, Retry: true, MaxFailures: 3}
	h := l.Halved()
	if h.UnitTimeout != 2*time.Second || h.MaxSteps != 50 || h.MaxPaths != 4 {
		t.Fatalf("Halved = %+v", h)
	}
	if h.MaxMemBytes != 1 {
		t.Fatalf("MaxMemBytes halved to %d; must floor at 1, not fall to unlimited", h.MaxMemBytes)
	}
	if h.MaxDepth != 1 {
		t.Fatalf("MaxDepth halved to %d; must floor at 1", h.MaxDepth)
	}
	if !h.Retry || h.MaxFailures != 3 {
		t.Fatal("Halved must not alter Retry/MaxFailures")
	}
}

func TestProtectPanic(t *testing.T) {
	b := New(context.Background(), Limits{MaxSteps: 100})
	defer b.Close()
	_ = b.Step(7)
	fr := Protect("detect", "iface:foo.bar", b, func() error {
		panic("boom")
	})
	if fr == nil {
		t.Fatal("panic not captured")
	}
	if fr.Reason != ReasonPanic || fr.Detail != "boom" {
		t.Fatalf("record = %+v", fr)
	}
	if fr.Unit != "iface:foo.bar" || fr.Stage != "detect" {
		t.Fatalf("record identity = %q/%q", fr.Stage, fr.Unit)
	}
	if !strings.Contains(fr.Stack, "budget_test") {
		t.Fatalf("stack does not reference the panic site:\n%s", fr.Stack)
	}
	if fr.StepsSpent != 7 {
		t.Fatalf("StepsSpent = %d", fr.StepsSpent)
	}
}

func TestProtectErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Reason
	}{
		{&ErrExhausted{Reason: ReasonSteps}, ReasonSteps},
		{fmt.Errorf("wrapped: %w", &ErrExhausted{Reason: ReasonMemory}), ReasonMemory},
		{context.DeadlineExceeded, ReasonDeadline},
		{context.Canceled, ReasonCanceled},
		{errors.New("parse failure"), ReasonError},
	}
	for _, c := range cases {
		fr := Protect("infer", "p1", nil, func() error { return c.err })
		if fr == nil || fr.Reason != c.want {
			t.Errorf("Protect(%v) reason = %v, want %v", c.err, fr, c.want)
		}
	}
	if fr := Protect("infer", "p1", nil, func() error { return nil }); fr != nil {
		t.Errorf("successful unit produced %v", fr)
	}
}

func TestFailureRecordStrings(t *testing.T) {
	fr := &FailureRecord{Unit: "p1", Stage: "infer", Reason: ReasonPanic, Detail: "boom", StepsSpent: 3, Attempts: 2}
	if s := fr.String(); !strings.Contains(s, "p1") || !strings.Contains(s, "panic") {
		t.Errorf("FailureRecord.String() = %q", s)
	}
	d := Degradation{Unit: "u", Stage: "detect", Reason: ReasonSteps, Detail: "x"}
	if s := d.String(); !strings.Contains(s, "degraded") || !strings.Contains(s, "step-budget") {
		t.Errorf("Degradation.String() = %q", s)
	}
}
