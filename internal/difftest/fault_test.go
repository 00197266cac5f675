package difftest

import (
	"testing"
	"time"
)

// TestFaultIsolation is the acceptance-criterion configuration: K panics and
// M stalls injected into detect workers=4 must complete, quarantine exactly
// K+M units with well-formed FailureRecords, and leave the remaining units'
// output byte-identical to a fault-free run.
func TestFaultIsolation(t *testing.T) {
	cases := []FaultConfig{
		{Seed: 1, NPanic: 1, NStall: 0},
		{Seed: 2, NPanic: 0, NStall: 1},
		{Seed: 3, NPanic: 2, NStall: 1},
	}
	for _, cfg := range cases {
		cfg.Workers = 4
		cfg.UnitTimeout = 300 * time.Millisecond
		o, err := RunFaultCase(cfg)
		if err != nil {
			t.Fatalf("seed %d (%dp/%ds): %v", cfg.Seed, cfg.NPanic, cfg.NStall, err)
		}
		if !o.Ok() {
			t.Errorf("seed %d (%dp/%ds):\n%s", cfg.Seed, cfg.NPanic, cfg.NStall, o.Report())
		}
		if o.Result != nil && len(o.Result.Failures) != cfg.NPanic+cfg.NStall {
			t.Errorf("seed %d: %d failure records, want %d",
				cfg.Seed, len(o.Result.Failures), cfg.NPanic+cfg.NStall)
		}
		// The manifest must agree with the failure records (RunFaultCase
		// already cross-checks unit-by-unit; this pins the headline count).
		if o.Manifest == nil || o.Manifest.Outcomes.Quarantined != cfg.NPanic+cfg.NStall {
			t.Errorf("seed %d: manifest quarantined outcome mismatch: %+v", cfg.Seed, o.Manifest)
		}
	}
}

// TestFaultIsolationAllUnits kills every unit: the run must still terminate
// with an empty report rather than deadlock the worker queue.
func TestFaultIsolationAllUnits(t *testing.T) {
	specs, _, err := faultCorpus()
	if err != nil {
		t.Fatal(err)
	}
	n := len(UnitScopes(specs))
	if n < 2 {
		t.Fatalf("corpus has only %d unit(s); fault coverage needs more", n)
	}
	o, err := RunFaultCase(FaultConfig{Seed: 7, NPanic: n, Workers: 4, UnitTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Ok() {
		t.Errorf("all-units fault run:\n%s", o.Report())
	}
	if len(o.Result.Recs) != 0 {
		t.Errorf("all units quarantined but %d bugs reported", len(o.Result.Recs))
	}
}
