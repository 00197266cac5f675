package detect

import (
	"context"
	"fmt"
	"time"

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/obs"
	"seal/internal/solver"
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
	// Stats are the substrate counters the groups' own detectors caused in
	// this run (see Stats); a replayed group's are zero.
	Stats Stats `json:"stats"`
	// Solver is the solver work the groups' units asked for. Checks is the
	// same however units are partitioned and whatever ran before, so it is
	// stored with the findings; the memo hit/miss split depends on the
	// process-global memo, so it counts only units computed in this run.
	Solver solver.Tally `json:"solver"`
}

// Findings is the part of o that is a function of its groups' cache key:
// bugs, unit records and the solver check count. The persistent cache (the
// binary form encodes exactly it) and the group memo store it.
func (o *Outcome) Findings() *Outcome {
	return &Outcome{Bugs: o.Bugs, Units: o.Units, Solver: solver.Tally{Checks: o.Solver.Checks}}
}

// Result is the outcome of a whole detection run: the merged outcome of
// every region group (Units sorted by ID, robustness records in group
// order; Bugs is nil, see ShardBugs) plus the rendered-report records and
// the persistent cache's counters.
type Result struct {
	Outcome
	// Recs is the report-rendering payload: the deduplicated, sorted
	// records every renderer consumes (report.RenderRec), identical whether
	// a group was computed or replayed.
	Recs []BugRec
	// PCache is the persistent analysis cache's counter snapshot; zero
	// unless the run was configured with a cache directory.
	PCache cache.Stats

	parts []foldPart // the folded bugs, by reference (see ShardBugs)
}

// UnitRec is the serializable per-unit summary of one region group.
type UnitRec struct {
	ID    string `json:"id"`
	Specs int    `json:"specs"`
	Bugs  int    `json:"bugs"`
}

// RunGroups runs region groups as isolated units of work on up to workers
// goroutines over the shared substrate — the paper's parallel path search
// (§8.4) — through the budget.Runner policy: a unit that panics, outlives
// its deadline, or errors is quarantined with its results dropped, and no
// worker or single-flight waiter is left deadlocked; a unit that merely
// exhausts a quantitative budget finishes Degraded with its partial results
// kept; limits.Retry re-attempts a quarantined unit once with a halved
// budget. groups[i] holds one region group's specs (all sharing one
// detection scope, the unit ID) in global relative order. A non-nil rec
// receives one unit span per group, with slice/solve stage clocks.
//
// The outcomes are index-aligned with groups; a group never started because
// the run aborted has a nil outcome. Each outcome's bug ordinals index its
// own group, and its Stats and Solver tally are the work its own detectors
// caused over both attempts, so the outcomes of a cold run sum to the
// substrate's totals at any worker count. The error is non-nil only for
// run-level aborts (ctx canceled, or more than limits.MaxFailures units
// quarantined).
func (sh *Shared) RunGroups(ctx context.Context, groups [][]*spec.Spec, workers int, limits budget.Limits, rec *obs.Recorder) ([]*Outcome, error) {
	ids := make([]string, len(groups))
	for gi, g := range groups {
		ids[gi] = g[0].Scope()
	}
	// Per-group payload, accumulated over both attempts where it counts
	// work (stats, solver checks, stage clocks).
	type unit struct {
		bugs  []*Bug // merged reports of the last, completed attempt
		nBugs int    // per-spec report count before the merge
		work  Stats
		sat   solver.Tally
		clk   stageClock
	}
	units := make([]unit, len(groups))
	verdicts, aborted := budget.Runner{
		Stage:   "detect",
		Workers: workers,
		Limits:  limits,
		Obs:     rec,
		Body: func(gi int, b *budget.Budget, span *obs.Span) error {
			u := &units[gi]
			d := sh.Detector()
			d.SetBudget(b)
			d.sat = &u.sat
			if span != nil {
				d.clk = &u.clk
			}
			defer func() { u.work = u.work.Merge(d.Work()) }()
			perSpec := make([][]*Bug, len(groups[gi]))
			n := 0
			for k, s := range groups[gi] {
				// A unit whose deadline passed (or whose run was canceled) is
				// quarantined; quantitative caps merely degrade it.
				if err := b.Context().Err(); err != nil {
					return err
				}
				perSpec[k] = d.DetectSpec(s)
				n += len(perSpec[k])
			}
			u.bugs, u.nBugs = mergeBugs(perSpec), n
			return nil
		},
		Finish: func(gi int, span *obs.Span) {
			u := &units[gi]
			span.SetCounts(len(groups[gi]), u.nBugs)
			span.AddStage("slice", time.Duration(u.clk.sliceNs), 0)
			span.AddStage("solve", time.Duration(u.clk.solveNs), 0)
			if u.work.Truncations > 0 {
				span.Annotate("truncated", fmt.Sprintf("%d path enumerations cut short", u.work.Truncations))
			}
		},
	}.Run(ctx, ids)

	out := make([]*Outcome, len(groups))
	quarantined := 0
	for gi, v := range verdicts {
		if v.Skipped {
			continue
		}
		u := &units[gi]
		o := &Outcome{
			Bugs:   ShardBugsOf(u.bugs, groups[gi]),
			Units:  []UnitRec{{ID: ids[gi], Specs: len(groups[gi]), Bugs: u.nBugs}},
			Stats:  u.work,
			Solver: u.sat,
		}
		if v.Attempts > 1 {
			o.Stats.RetriedUnits = 1
		}
		if v.Failure != nil {
			o.Failures = []*budget.FailureRecord{v.Failure}
			quarantined++
		}
		if v.Degraded != nil {
			o.Degraded = []budget.Degradation{*v.Degraded}
		}
		out[gi] = o
	}
	if aborted {
		return out, fmt.Errorf("detect: aborted after %d quarantined units (max %d)", quarantined, limits.MaxFailures)
	}
	return out, ctx.Err()
}
