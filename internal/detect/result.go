package detect

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/faultinject"
	"seal/internal/obs"
	"seal/internal/spec"
)

// Outcome is the mergeable outcome of one or more region groups, in the
// form every detection path exchanges: what RunGroups computes per group,
// what the persistent cache and the resident memo store per group, and
// what a shard worker returns for its slice of the corpus. It carries no
// live IR.
type Outcome struct {
	// Bugs are the merged bug records in wire form. Each Ord is the
	// producing spec's ordinal within the spec list the outcome was computed
	// over (one group's subset, or one shard job's list); Fold translates
	// it to a global ordinal.
	Bugs []ShardBug `json:"bugs,omitempty"`
	// Units summarizes each region group for manifest replay: a warm run
	// re-records one OK unit span per entry so the redacted manifest is
	// byte-identical to the cold run's.
	Units []UnitRec `json:"units,omitempty"`
	// Failures are the quarantined units (panic, deadline, error). Their
	// results are dropped entirely; everything else is unaffected.
	Failures []*budget.FailureRecord `json:"failures,omitempty"`
	// Degraded are the units that completed but with budget-truncated
	// results (step/memory caps): their reports are kept, marked.
	Degraded []budget.Degradation `json:"degraded,omitempty"`
	// Stats are the substrate counters the groups' own detectors caused,
	// plus their unit verdicts.
	Stats Stats `json:"stats"`
	// SatChecks is the number of solver satisfiability checks the groups'
	// units asked for. Intrinsic to each unit's work, so the sum is
	// identical however the units are partitioned across workers, shards,
	// or concurrent runs — a delta of the process-global counter is not.
	SatChecks int64 `json:"sat_checks"`
}

// Result is the outcome of a whole detection run: the merged outcome of
// every region group (Bugs with ordinals over the run's spec list, Units
// sorted by ID, robustness records in group order) plus the rendered-report
// records and the persistent cache's counters.
type Result struct {
	Outcome
	// Recs is the report-rendering payload: the deduplicated, sorted
	// records every renderer consumes (report.RenderRec), identical whether
	// a group was computed or replayed.
	Recs []BugRec
	// PCache is the persistent analysis cache's counter snapshot; zero
	// unless the run was configured with a cache directory.
	PCache cache.Stats
}

// UnitRec is the serializable per-unit summary of one region group.
type UnitRec struct {
	ID    string `json:"id"`
	Specs int    `json:"specs"`
	Bugs  int    `json:"bugs"`
}

// attempt is the verdict of one try at one region group.
type attempt struct {
	failure  *budget.FailureRecord
	degraded *budget.Degradation
	// bugs is the group's merged report list (nil when quarantined); nBugs
	// is the per-spec count before the merge, the unit's manifest figure.
	bugs  []*Bug
	nBugs int
	// Observability payload: budget spend, the slice/solve stage clocks,
	// slicer truncations, solver checks, and the substrate work.
	spend     budget.Spend
	sliceNs   int64
	solveNs   int64
	satChecks int64
	work      Stats
}

// RunGroups runs region groups as isolated units of work on up to workers
// goroutines over the shared substrate — the paper's parallel path search
// (§8.4). groups[i] holds one region group's specs (all sharing one
// detection scope) in global relative order. A unit that panics, outlives
// its deadline, or errors is quarantined: its FailureRecord captures the
// stage, budget spent, and stack, its results are dropped, and no worker or
// single-flight waiter is left deadlocked. A unit that merely exhausts a
// quantitative budget finishes Degraded with its partial results kept.
// With limits.Retry a quarantined unit is re-attempted once with a halved
// budget. A non-nil rec receives one unit span per group.
//
// The outcomes are index-aligned with groups; a group never started because
// the run aborted has a nil outcome. Each outcome's bug ordinals index its
// own group, and its Stats are the substrate work its own detectors caused,
// so the outcomes of a cold run sum to the substrate's totals at any worker
// count. The error is non-nil only for run-level aborts (ctx canceled, or
// more than limits.MaxFailures units quarantined).
func (sh *Shared) RunGroups(ctx context.Context, groups [][]*spec.Spec, workers int, limits budget.Limits, rec *obs.Recorder) ([]*Outcome, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	out := make([]*Outcome, len(groups))
	var quarantined atomic.Int64
	var aborted atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// runGroup contains every panic, so a worker never dies and the
			// unbuffered queue below never loses its consumers.
			for gi := range next {
				if aborted.Load() || ctx.Err() != nil {
					continue
				}
				o := sh.runGroup(ctx, groups[gi], limits, rec)
				out[gi] = o
				if len(o.Failures) > 0 {
					if n := quarantined.Add(1); limits.MaxFailures > 0 && n > int64(limits.MaxFailures) {
						aborted.Store(true)
					}
				}
			}
		}()
	}
	for gi := range groups {
		next <- gi
	}
	close(next)
	wg.Wait()
	if aborted.Load() {
		return out, fmt.Errorf("detect: aborted after %d quarantined units (max %d)",
			quarantined.Load(), limits.MaxFailures)
	}
	return out, ctx.Err()
}

// runGroup executes one unit of work, retrying once with a halved budget
// when configured. The unit id is the group's detection scope; the whole
// group — both attempts — is one unit span carrying the verdict, stage
// clocks, and budget spend.
func (sh *Shared) runGroup(ctx context.Context, specs []*spec.Spec, limits budget.Limits, rec *obs.Recorder) *Outcome {
	unit := specs[0].Scope()
	span := rec.Unit("detect", unit)
	a := sh.runUnit(ctx, specs, limits, unit, 1, span != nil)
	retried := a.failure != nil && limits.Retry
	if retried {
		first := a
		a = sh.runUnit(ctx, specs, limits.Halved(), unit, 2, span != nil)
		a.satChecks += first.satChecks // "checks asked for" spans both attempts
		a.work = a.work.Merge(first.work)
		a.work.RetriedUnits = 1
	}
	o := &Outcome{
		Bugs:      ShardBugsOf(a.bugs, specs),
		Units:     []UnitRec{{ID: unit, Specs: len(specs), Bugs: a.nBugs}},
		Stats:     a.work,
		SatChecks: a.satChecks,
	}
	if a.failure != nil {
		o.Failures = []*budget.FailureRecord{a.failure}
	}
	if a.degraded != nil {
		o.Degraded = []budget.Degradation{*a.degraded}
	}
	if span != nil {
		if retried {
			span.SetAttempts(2)
		}
		span.SetCounts(len(specs), a.nBugs)
		span.AddStage("slice", time.Duration(a.sliceNs), 0)
		span.AddStage("solve", time.Duration(a.solveNs), 0)
		if a.work.Truncations > 0 {
			span.Annotate("truncated", fmt.Sprintf("%d path enumerations cut short", a.work.Truncations))
		}
		switch {
		case a.failure != nil:
			span.SetOutcome(obs.OutcomeQuarantined, string(a.failure.Reason))
		case a.degraded != nil:
			span.SetOutcome(obs.OutcomeDegraded, string(a.degraded.Reason))
			span.Annotate("degraded", a.degraded.Detail)
		}
		span.EndWithSpend(a.spend.Steps, a.spend.MemBytes)
	}
	return o
}

// runUnit is one attempt at one unit: a fresh budget, a fresh detector, and
// panic containment around the whole group. A quarantined attempt leaves
// no partial output behind. clock turns on the slice/solve stage clocks.
func (sh *Shared) runUnit(ctx context.Context, specs []*spec.Spec, limits budget.Limits, unit string, attemptNo int, clock bool) attempt {
	var a attempt
	b := budget.New(ctx, limits)
	defer b.Close()
	d := sh.Detector()
	d.SetBudget(b)
	if clock {
		d.clk = &stageClock{}
	}
	perSpec := make([][]*Bug, len(specs))
	var fr *budget.FailureRecord
	// pprof goroutine labels attribute CPU samples to the unit (one
	// label-set swap per unit, not per operation).
	obs.WithUnitLabels(ctx, "detect", unit, func(context.Context) {
		fr = budget.Protect("detect", unit, b, func() error {
			if err := faultinject.Fire(b.Context(), "detect", unit, b); err != nil {
				return err
			}
			for k, s := range specs {
				// A unit whose deadline passed (or whose run was canceled) is
				// quarantined; quantitative caps merely degrade it below.
				if err := b.Context().Err(); err != nil {
					return err
				}
				perSpec[k] = d.DetectSpec(s)
			}
			return nil
		})
	})
	a.spend = b.Spend()
	a.work = d.work()
	a.satChecks = d.satChecks
	if d.clk != nil {
		a.sliceNs, a.solveNs = d.clk.sliceNs, d.clk.solveNs
	}
	if fr != nil {
		fr.Attempts = attemptNo
		a.failure = fr
		return a
	}
	for _, bugs := range perSpec {
		a.nBugs += len(bugs)
	}
	a.bugs = mergeBugs(perSpec)
	if ex := b.Exhausted(); ex != nil {
		a.degraded = &budget.Degradation{Unit: unit, Stage: "detect", Reason: ex.Reason, Detail: ex.Error()}
	}
	return a
}
