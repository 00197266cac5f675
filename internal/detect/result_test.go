package detect

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"seal/internal/budget"
	"seal/internal/faultinject"
	"seal/internal/obs"
	"seal/internal/spec"
)

// runAll drives every region group of specs through RunGroups on sh and
// folds the outcomes into one Result — the group scheduler without its
// cache tiers.
func runAll(ctx context.Context, sh *Shared, specs []*spec.Spec, workers int, limits budget.Limits, rec *obs.Recorder) (*Result, error) {
	groups := ScopeGroups(specs)
	subsets := make([][]*spec.Spec, len(groups))
	for gi, g := range groups {
		for _, si := range g {
			subsets[gi] = append(subsets[gi], specs[si])
		}
	}
	outs, err := sh.RunGroups(ctx, subsets, workers, limits, rec)
	f := NewFold(scopesOf(specs))
	for gi, o := range outs {
		if o != nil {
			f.Add(groups[gi], o)
		}
	}
	return f.Result(), err
}

// dumpRecs renders records in dumpBugs' format (BugRec.String mirrors
// Bug.String), so a run's records compare directly against live bugs.
func dumpRecs(recs []BugRec) string {
	var sb strings.Builder
	sb.WriteByte('\n')
	for _, r := range recs {
		sb.WriteString("  " + r.String() + "\n")
	}
	return sb.String()
}

// scopesOf returns the unique detection scopes of the spec list, in
// first-appearance order — the unit universe of a RunGroups run.
func scopesOf(specs []*spec.Spec) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range specs {
		if sc := s.Scope(); !seen[sc] {
			seen[sc] = true
			out = append(out, sc)
		}
	}
	return out
}

func TestDetectParallelCtxCleanRun(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	ref := dumpBugs(New(prog).Detect(specs))
	res, err := runAll(context.Background(), NewShared(prog), specs, 4, budget.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 || len(res.Degraded) != 0 {
		t.Fatalf("clean run produced %d failures, %d degradations", len(res.Failures), len(res.Degraded))
	}
	if got := dumpRecs(res.Recs); got != ref {
		t.Errorf("grouped run diverges from sequential Detect:\n%s\nvs\n%s", got, ref)
	}
}

func TestDetectParallelCtxPanicContainment(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	units := scopesOf(specs)
	if len(units) < 2 {
		t.Fatalf("corpus yielded %d units; containment needs several", len(units))
	}
	victim := units[0]
	refBugs := New(prog).Detect(specs)

	faultinject.Set(faultinject.NewPlan().Add("detect", victim, faultinject.KindPanic))
	defer faultinject.Reset()
	sh := NewShared(prog)
	res, err := runAll(context.Background(), sh, specs, 4, budget.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("one injected panic, %d failures: %v", len(res.Failures), res.Failures)
	}
	fr := res.Failures[0]
	if fr.Unit != victim || fr.Reason != budget.ReasonPanic || fr.Attempts != 1 || fr.Stack == "" {
		t.Fatalf("FailureRecord = %+v", fr)
	}
	var want []*Bug
	for _, b := range refBugs {
		if b.Spec.Scope() != victim {
			want = append(want, b)
		}
	}
	if got := dumpRecs(res.Recs); got != dumpBugs(want) {
		t.Errorf("survivor output diverges:\n%s\nvs\n%s", got, dumpBugs(want))
	}

	// The panic must not have poisoned the shared substrate: a fault-free
	// pass over the SAME substrate recovers the victim's results too.
	faultinject.Reset()
	res2, err := runAll(context.Background(), sh, specs, 4, budget.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Failures) != 0 {
		t.Fatalf("substrate reuse after panic: %v", res2.Failures)
	}
	if got := dumpRecs(res2.Recs); got != dumpBugs(refBugs) {
		t.Errorf("substrate poisoned by earlier panic:\n%s\nvs\n%s", got, dumpBugs(refBugs))
	}
}

func TestDetectParallelCtxRetryRecoversTransientFault(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	victim := scopesOf(specs)[0]
	ref := dumpBugs(New(prog).Detect(specs))

	faultinject.Set(faultinject.NewPlan().AddOnce("detect", victim, faultinject.KindPanic))
	defer faultinject.Reset()
	res, err := runAll(context.Background(), NewShared(prog), specs, 4, budget.Limits{Retry: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("transient fault with retry still quarantined: %v", res.Failures)
	}
	if res.Stats.RetriedUnits != 1 {
		t.Fatalf("RetriedUnits = %d, want 1", res.Stats.RetriedUnits)
	}
	if got := dumpRecs(res.Recs); got != ref {
		t.Errorf("retried run lost output:\n%s\nvs\n%s", got, ref)
	}
}

func TestDetectParallelCtxRetryPersistentFault(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	victim := scopesOf(specs)[0]
	faultinject.Set(faultinject.NewPlan().Add("detect", victim, faultinject.KindPanic))
	defer faultinject.Reset()
	res, err := runAll(context.Background(), NewShared(prog), specs, 4, budget.Limits{Retry: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Attempts != 2 {
		t.Fatalf("persistent fault under retry: %v", res.Failures)
	}
	if res.Stats.RetriedUnits != 1 {
		t.Fatalf("RetriedUnits = %d, want 1", res.Stats.RetriedUnits)
	}
}

func TestDetectParallelCtxMaxFailuresAborts(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	units := scopesOf(specs)
	if len(units) < 3 {
		t.Skipf("only %d units; abort test needs 3+", len(units))
	}
	plan := faultinject.NewPlan()
	for _, u := range units {
		plan.Add("detect", u, faultinject.KindPanic)
	}
	faultinject.Set(plan)
	defer faultinject.Reset()
	rec := obs.New()
	rec.StartRun("detect")
	res, err := runAll(context.Background(), NewShared(prog), specs, 1, budget.Limits{MaxFailures: 1}, rec)
	if err == nil {
		t.Fatal("run with every unit panicking and MaxFailures=1 did not abort")
	}
	// The abort threshold is MaxFailures+1 quarantines; with one worker the
	// remaining units are skipped, not quarantined.
	if len(res.Failures) != 2 {
		t.Fatalf("aborted run has %d failures, want 2 (threshold crossing)", len(res.Failures))
	}
	// Every skipped unit still gets a span, so the manifest accounts for
	// all groups; seal_units_skipped_total is exported from this same
	// outcome count.
	m := rec.BuildManifest("detect", 1, nil, 0)
	if got, want := m.Outcomes.Skipped, len(units)-2; got != want {
		t.Fatalf("manifest outcomes.skipped = %d, want %d (groups - 2)", got, want)
	}
	if m.Outcomes.Quarantined != 2 || len(m.Units) != len(units) {
		t.Fatalf("manifest has %d quarantined of %d units, want 2 of %d",
			m.Outcomes.Quarantined, len(m.Units), len(units))
	}
}

func TestDetectParallelCtxCanceledParent(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runAll(ctx, NewShared(prog), specs, 4, budget.Limits{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v", err)
	}
	if len(res.Recs) != 0 {
		t.Fatalf("pre-canceled run produced %d bugs", len(res.Recs))
	}
}

func TestDetectParallelCtxStepBudgetDegrades(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	res, err := runAll(context.Background(), NewShared(prog), specs, 4, budget.Limits{MaxSteps: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("step budget must degrade, not quarantine: %v", res.Failures)
	}
	if len(res.Degraded) == 0 {
		t.Fatal("MaxSteps=25 over the whole corpus degraded nothing")
	}
	for _, d := range res.Degraded {
		if d.Reason != budget.ReasonSteps && d.Reason != budget.ReasonMemory {
			t.Errorf("degradation reason %q, want a quantitative budget", d.Reason)
		}
	}
}

func TestDetectParallelCtxStallCutByDeadline(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	victim := scopesOf(specs)[0]
	faultinject.Set(faultinject.NewPlan().Add("detect", victim, faultinject.KindStall))
	defer faultinject.Reset()
	start := time.Now()
	res, err := runAll(context.Background(), NewShared(prog), specs, 4,
		budget.Limits{UnitTimeout: 100 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("stalled unit held the run for %v", el)
	}
	if len(res.Failures) != 1 || res.Failures[0].Reason != budget.ReasonDeadline {
		t.Fatalf("stalled unit: %v", res.Failures)
	}
}
