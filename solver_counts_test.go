package seal_test

// Per-run solver accounting: every solver check is charged to the unit of
// work that asked for it, so the seal_solver_* figures of one run never
// absorb the checks of another run in the same process (a resident
// service's concurrent requests, or several runs in one test binary).

import (
	"context"
	"errors"
	"testing"
	"time"

	"seal"
	"seal/internal/faultinject"
	"seal/internal/kernelgen"
)

// TestSolverCountsPerRun holds inference run A inside its last patch (a
// fault-injected stall, released by canceling A) while detection run B
// runs cold to completion. A's exported solver checks must equal those of
// A run alone under the same plan, and in both runs the memo hits and
// misses must stay within the checks.
func TestSolverCountsPerRun(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	patches := corpus.Patches
	victim := patches[len(patches)-1].ID
	ref, err := seal.InferSpecs(patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// runA runs A with the victim stalled, calls during while the stall
	// holds, then cancels A and returns its exported counters.
	runA := func(during func()) map[string]float64 {
		plan := faultinject.NewPlan().Add("infer", victim, faultinject.KindStall)
		plan.StallCap = time.Minute
		faultinject.Set(plan)
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rec := seal.NewRecorder()
		rec.StartRun("infer")
		type result struct {
			res *seal.InferenceResult
			err error
		}
		done := make(chan result, 1)
		go func() {
			res, err := seal.InferSpecsContext(ctx, patches, seal.Options{Validate: true, Obs: rec})
			done <- result{res, err}
		}()
		for deadline := time.Now().Add(30 * time.Second); !plan.FiredUnits("infer")[victim]; {
			if time.Now().After(deadline) {
				t.Fatal("run A never reached its stalled patch")
			}
			time.Sleep(time.Millisecond)
		}
		during()
		cancel()
		r := <-done
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("canceled run A returned %v", r.err)
		}
		if len(r.res.Failures) != 1 || r.res.Failures[0].Unit != victim {
			t.Fatalf("run A quarantined %v, want only the stalled %s", r.res.Failures, victim)
		}
		art, err := seal.FinishInferRun(rec, r.res, len(patches), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return art.Manifest.Counters
	}

	alone := runA(func() {})
	var b map[string]float64
	together := runA(func() {
		rec := seal.NewRecorder()
		rec.StartRun("detect")
		res, _, err := seal.DetectFiles(context.Background(), corpus.Files, ref.DB.Specs,
			seal.DetectRunOptions{Workers: 2, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		art, err := seal.FinishDetectRun(rec, res, len(ref.DB.Specs), 2, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		b = art.Manifest.Counters
	})

	const checks = "seal_solver_sat_checks_total"
	if alone[checks] == 0 || b[checks] == 0 {
		t.Fatalf("no solver checks counted (A alone %v, B %v); the comparison is vacuous", alone[checks], b[checks])
	}
	if together[checks] != alone[checks] {
		t.Errorf("run A counted %v solver checks beside run B, %v alone", together[checks], alone[checks])
	}
	for name, c := range map[string]map[string]float64{"A": together, "B": b} {
		memo := c["seal_solver_sat_memo_hits_total"] + c["seal_solver_sat_memo_misses_total"]
		if memo > c[checks] {
			t.Errorf("run %s: %v memo hits+misses exceed its %v checks", name, memo, c[checks])
		}
	}
}
