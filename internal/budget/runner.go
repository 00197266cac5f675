package budget

import (
	"context"
	"sync"
	"sync/atomic"

	"seal/internal/faultinject"
	"seal/internal/obs"
)

// Runner runs units of work — the patches of an inference run, the region
// groups of a detection run — at most Workers at a time under one
// fault-isolation policy. Every attempt gets a fresh Budget, pprof unit
// labels, the unit's fault-injection site, and panic containment; a
// quarantined unit is retried once with Limits.Halved() under
// Limits.Retry; a unit completing with an exhausted budget is Degraded.
// The run aborts past Limits.MaxFailures quarantines (or at the first under
// FailFast), and every unit not started after an abort or a cancel is
// Skipped. Each unit gets one span carrying its verdict. Callers supply the
// unit body and keep their own per-unit payload, indexed by unit.
type Runner struct {
	// Stage names the pipeline stage ("infer", "detect"): the unit spans'
	// stage, the pprof label, the fault-injection site, and the stage of
	// every FailureRecord and Degradation.
	Stage string
	// Workers bounds how many units run at once (values below 1 mean 1).
	Workers int
	// Limits is the per-unit budget, plus the retry and abort policy.
	Limits Limits
	// FailFast aborts the run at the first quarantined unit.
	FailFast bool
	// Obs receives one unit span per unit; nil disables observability.
	Obs *obs.Recorder
	// Body runs one attempt of unit i under budget b, recording its own
	// stage spans under span (nil when unobserved) and its own payload. A
	// returned error or a panic quarantines the attempt.
	Body func(i int, b *Budget, span *obs.Span) error
	// Finish, when non-nil, runs once per started unit after its last
	// attempt and before the verdict is recorded on span: the place for
	// result counts, accumulated stage clocks, and annotations.
	Finish func(i int, span *obs.Span)
}

// Verdict is the runner's record of one unit.
type Verdict struct {
	// Skipped marks a unit never started: the run aborted or was canceled.
	Skipped bool
	// Attempts counts the tries (2 after a halved-budget retry).
	Attempts int
	// Failure and Degraded are the last attempt's quarantine record or
	// budget-exhaustion mark; Spend is its budget consumption.
	Failure  *FailureRecord
	Degraded *Degradation
	Spend    Spend
}

// Run runs units 0..len(ids)-1, where ids[i] names unit i, and returns the
// verdicts index-aligned with ids plus whether the run aborted.
func (r Runner) Run(ctx context.Context, ids []string) ([]Verdict, bool) {
	vs := make([]Verdict, len(ids))
	var quarantined atomic.Int64
	var aborted atomic.Bool
	// unit contains every panic of the body, so none escapes Each.
	Each(r.Workers, len(ids), func(i int) {
		if aborted.Load() || ctx.Err() != nil {
			vs[i].Skipped = true
			span := r.Obs.Unit(r.Stage, ids[i])
			span.SetOutcome(obs.OutcomeSkipped, "aborted")
			span.End()
			return
		}
		vs[i] = r.unit(ctx, i, ids[i])
		if vs[i].Failure != nil {
			if n := quarantined.Add(1); r.FailFast || (r.Limits.MaxFailures > 0 && n > int64(r.Limits.MaxFailures)) {
				aborted.Store(true)
			}
		}
	})
	return vs, aborted.Load()
}

// Each calls f(0)..f(n-1), at most workers at a time, starting them in
// index order, and returns once every call has. With workers below 2 the
// calls run in order on the caller's goroutine; otherwise each gets a
// goroutine of its own (short-lived goroutines beat long-lived workers
// here: a unit's deep analysis stack is not carried from unit to unit).
// It is the pool under Runner.Run, and the one for per-unit work outside
// it, such as probing the cache for every unit of a run.
func Each(workers, n int, f func(i int)) {
	if workers < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
			<-sem
		}()
	}
	wg.Wait()
}

// unit runs one unit to its verdict: one attempt, the halved-budget retry
// when configured, then the unit span's verdict.
func (r Runner) unit(ctx context.Context, i int, id string) Verdict {
	span := r.Obs.Unit(r.Stage, id)
	v := r.attempt(ctx, i, id, r.Limits, 1, span)
	if v.Failure != nil && r.Limits.Retry {
		v = r.attempt(ctx, i, id, r.Limits.Halved(), 2, span)
	}
	if r.Finish != nil {
		r.Finish(i, span)
	}
	if v.Attempts > 1 {
		span.SetAttempts(v.Attempts)
	}
	switch {
	case v.Failure != nil:
		span.SetOutcome(obs.OutcomeQuarantined, string(v.Failure.Reason))
	case v.Degraded != nil:
		span.SetOutcome(obs.OutcomeDegraded, string(v.Degraded.Reason))
		span.Annotate("degraded", v.Degraded.Detail)
	}
	span.EndWithSpend(v.Spend.Steps, v.Spend.MemBytes)
	return v
}

// attempt is one try at one unit under a fresh budget.
func (r Runner) attempt(ctx context.Context, i int, id string, lim Limits, no int, span *obs.Span) Verdict {
	b := New(ctx, lim)
	defer b.Close()
	var fr *FailureRecord
	// pprof goroutine labels attribute CPU samples to the unit (one
	// label-set swap per unit, not per operation).
	obs.WithUnitLabels(ctx, r.Stage, id, func(context.Context) {
		fr = Protect(r.Stage, id, b, func() error {
			if err := faultinject.Fire(b.Context(), r.Stage, id, b); err != nil {
				return err
			}
			return r.Body(i, b, span)
		})
	})
	v := Verdict{Attempts: no, Spend: b.Spend()}
	if fr != nil {
		fr.Attempts = no
		v.Failure = fr
	} else if ex := b.Exhausted(); ex != nil {
		v.Degraded = &Degradation{Unit: id, Stage: r.Stage, Reason: ex.Reason, Detail: ex.Error()}
	}
	return v
}
