package budget

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"seal/internal/obs"
)

func unitIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
	}
	return ids
}

// TestRunnerAbortSkipsRest pins the abort contract: past MaxFailures
// quarantines the run aborts, and every unit it never started is Skipped
// with a skipped span, so the manifest accounts for every unit.
func TestRunnerAbortSkipsRest(t *testing.T) {
	rec := obs.New()
	rec.StartRun("test")
	ids := unitIDs(5)
	vs, aborted := Runner{
		Stage:  "test",
		Limits: Limits{MaxFailures: 1},
		Obs:    rec,
		Body:   func(int, *Budget, *obs.Span) error { panic("boom") },
	}.Run(context.Background(), ids)
	if !aborted {
		t.Fatal("run past MaxFailures did not abort")
	}
	var failed, skipped int
	for _, v := range vs {
		switch {
		case v.Skipped:
			skipped++
		case v.Failure != nil:
			failed++
			if v.Failure.Reason != ReasonPanic || v.Failure.Stage != "test" || v.Failure.Attempts != 1 {
				t.Errorf("failure record %+v", v.Failure)
			}
		}
	}
	if failed != 2 || skipped != 3 {
		t.Fatalf("%d failed, %d skipped; want 2 and 3", failed, skipped)
	}
	m := rec.BuildManifest("test", 1, nil, 0)
	if m.Outcomes.Quarantined != 2 || m.Outcomes.Skipped != 3 {
		t.Fatalf("manifest outcomes %+v", m.Outcomes)
	}
}

// TestRunnerFailFastAndCancel: FailFast aborts at the first quarantine, and
// a canceled context starts nothing.
func TestRunnerFailFastAndCancel(t *testing.T) {
	vs, aborted := Runner{
		Stage:    "test",
		FailFast: true,
		Body:     func(int, *Budget, *obs.Span) error { return errors.New("bad input") },
	}.Run(context.Background(), unitIDs(3))
	if !aborted || vs[0].Failure == nil || vs[0].Failure.Reason != ReasonError || !vs[1].Skipped || !vs[2].Skipped {
		t.Fatalf("fail-fast verdicts %+v (aborted %v)", vs, aborted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	vs, aborted = Runner{
		Stage:   "test",
		Workers: 2,
		Body:    func(int, *Budget, *obs.Span) error { ran.Add(1); return nil },
	}.Run(ctx, unitIDs(4))
	if aborted || ran.Load() != 0 {
		t.Fatalf("canceled run: aborted %v, %d bodies ran", aborted, ran.Load())
	}
	for i, v := range vs {
		if !v.Skipped {
			t.Errorf("unit %d not skipped under a canceled context", i)
		}
	}
}

// TestRunnerRetryHalvesBudget: a quarantined unit is retried once with the
// halved limits, Finish runs once after the last attempt, and the span
// records both attempts.
func TestRunnerRetryHalvesBudget(t *testing.T) {
	rec := obs.New()
	rec.StartRun("test")
	lim := Limits{MaxSteps: 100, Retry: true}
	var seen []int64
	finished := 0
	vs, _ := Runner{
		Stage:  "test",
		Limits: lim,
		Obs:    rec,
		Body: func(_ int, b *Budget, _ *obs.Span) error {
			seen = append(seen, b.Limits().MaxSteps)
			if len(seen) == 1 {
				panic("transient")
			}
			return nil
		},
		Finish: func(int, *obs.Span) { finished++ },
	}.Run(context.Background(), unitIDs(1))
	if len(seen) != 2 || seen[0] != 100 || seen[1] != 50 {
		t.Fatalf("attempt budgets %v, want [100 50]", seen)
	}
	if v := vs[0]; v.Failure != nil || v.Attempts != 2 || finished != 1 {
		t.Fatalf("retried verdict %+v (Finish ran %d times)", v, finished)
	}
	if u := rec.BuildManifest("test", 1, nil, 0).Units; len(u) != 1 || u[0].Attempts != 2 || u[0].Outcome != obs.OutcomeOK {
		t.Fatalf("unit span %+v", u)
	}
}

// TestRunnerDegradesOnExhaustion: a unit that completes with an exhausted
// budget is Degraded, not quarantined, and its span says why.
func TestRunnerDegradesOnExhaustion(t *testing.T) {
	rec := obs.New()
	rec.StartRun("test")
	vs, _ := Runner{
		Stage:  "test",
		Limits: Limits{MaxSteps: 5},
		Obs:    rec,
		Body: func(_ int, b *Budget, _ *obs.Span) error {
			_ = b.Step(10)
			return nil
		},
	}.Run(context.Background(), unitIDs(1))
	v := vs[0]
	if v.Failure != nil || v.Degraded == nil || v.Degraded.Reason != ReasonSteps || v.Spend.Steps != 10 {
		t.Fatalf("verdict %+v", v)
	}
	u := rec.BuildManifest("test", 1, nil, 0).Units
	if len(u) != 1 || u[0].Outcome != obs.OutcomeDegraded || u[0].Steps != 10 {
		t.Fatalf("unit span %+v", u)
	}
}

// TestEachBoundsAndCovers: every index runs exactly once, in order on the
// caller's goroutine below two workers, and never more than workers at a
// time above.
func TestEachBoundsAndCovers(t *testing.T) {
	var order []int
	Each(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("sequential calls %v", order)
	}
	const workers, n = 3, 40
	var calls [n]atomic.Int32
	var running, peak atomic.Int32
	Each(workers, n, func(i int) {
		r := running.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		calls[i].Add(1)
		running.Add(-1)
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}
