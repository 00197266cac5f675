package faultinject_test

// An external test package: budget's unit runner imports faultinject, so
// an in-package test cannot import budget back.

import (
	"context"
	"errors"
	"testing"

	"seal/internal/budget"
	"seal/internal/faultinject"
)

func TestFireAllocSpikeChargesBudget(t *testing.T) {
	faultinject.Set(faultinject.NewPlan().Add("detect", "u1", faultinject.KindAllocSpike))
	defer faultinject.Reset()
	b := budget.New(context.Background(), budget.Limits{MaxMemBytes: 1 << 20})
	defer b.Close()
	err := faultinject.Fire(context.Background(), "detect", "u1", b)
	var ex *budget.ErrExhausted
	if !errors.As(err, &ex) || ex.Reason != budget.ReasonMemory {
		t.Fatalf("alloc spike returned %v, want memory exhaustion", err)
	}
	// Without a budget the spike has nothing to charge: Fire reports the
	// misconfiguration instead of silently doing nothing.
	faultinject.Set(faultinject.NewPlan().Add("detect", "u2", faultinject.KindAllocSpike))
	if err := faultinject.Fire(context.Background(), "detect", "u2", nil); err == nil {
		t.Fatal("unbudgeted alloc spike fired silently")
	}
}
