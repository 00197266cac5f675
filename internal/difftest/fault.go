package difftest

// Fault-injection differential configuration: run detection twice over the
// same corpus — once fault-free, once with a deterministic plan panicking K
// units and stalling M units — and check the isolation contract: exactly
// K+M units quarantined with well-formed FailureRecords, every other unit's
// output byte-identical to the fault-free run, and no deadlock or substrate
// poisoning under parallel workers.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/obs"
	"seal/internal/patch"
	"seal/internal/randprog"
	"seal/internal/spec"
)

var (
	faultOnce   sync.Once
	faultSpecs  []*spec.Spec
	faultTarget *seal.Target
	faultErr    error
)

// faultCorpus builds the fixed detection corpus fault runs use: specs
// inferred from generated cases of every mutation kind (seeds 0–2, as the
// fuzz targets use), detected against the seed-0 target. Units of work are
// the spec scopes, so specs whose interfaces are absent from the target
// still form (cheap, empty) units that faults can hit.
func faultCorpus() ([]*spec.Spec, *seal.Target, error) {
	faultOnce.Do(func() {
		var dbs []*spec.DB
		for _, seed := range []int64{0, 1, 2} {
			c := randprog.GenPatchCase(seed)
			res, err := seal.InferSpecs([]*patch.Patch{c.Patch}, seal.Options{Validate: true})
			if err != nil {
				faultErr = fmt.Errorf("seed %d: inference: %w", seed, err)
				return
			}
			dbs = append(dbs, res.DB)
		}
		faultSpecs = seal.MergeSpecDBs(dbs...).Specs
		c := randprog.GenPatchCase(0)
		faultTarget, faultErr = seal.LoadFiles(c.Target)
	})
	return faultSpecs, faultTarget, faultErr
}

// UnitScopes lists the unique detection scopes of a spec list in
// first-appearance order — exactly the unit ids detection assigns its
// region groups.
func UnitScopes(specs []*spec.Spec) []string {
	var out []string
	for _, g := range detect.ScopeGroups(specs) {
		out = append(out, specs[g[0]].Scope())
	}
	return out
}

// FaultConfig configures one fault-injection differential run.
type FaultConfig struct {
	// Seed drives which units receive faults (deterministic shuffle).
	Seed int64
	// NPanic / NStall are the number of units injected with a panic and
	// with a stall-past-deadline respectively.
	NPanic, NStall int
	// Workers is the detection worker count (the acceptance configuration
	// is 4).
	Workers int
	// UnitTimeout is the per-unit deadline that cuts stalled units off
	// (default 2s).
	UnitTimeout time.Duration
}

// FaultOutcome is the verdict of one fault-injection run.
type FaultOutcome struct {
	// Units is the unit universe (spec scopes).
	Units []string
	// Fired are the faults that actually fired.
	Fired []faultinject.Record
	// Result is the faulted run's detection result.
	Result *detect.Result
	// Manifest is the faulted run's observability manifest, checked
	// against the same isolation contract (fired faults = quarantined
	// manifest units, with matching reasons).
	Manifest *obs.Manifest
	// Problems lists every violated expectation (empty on success).
	Problems []string
}

// Ok reports whether the isolation contract held.
func (o *FaultOutcome) Ok() bool { return len(o.Problems) == 0 }

// Report renders the problems for test failure messages.
func (o *FaultOutcome) Report() string {
	s := fmt.Sprintf("fault case: %d units, %d fired\n", len(o.Units), len(o.Fired))
	for _, p := range o.Problems {
		s += "  PROBLEM: " + p + "\n"
	}
	return s
}

// RunFaultCase executes the fault-injection differential protocol:
//
//  1. fault-free: DetectFiles over a fresh substrate must quarantine and
//     degrade nothing, and match the sequential Detect output.
//  2. faulted: with NPanic+NStall units injected, the run must complete
//     (no deadlock), quarantine exactly the fired units with well-formed
//     FailureRecords (right stage, right reason, stack on panics), and
//     report bugs byte-identical to the fault-free run minus the
//     quarantined units' specs.
func RunFaultCase(cfg FaultConfig) (*FaultOutcome, error) {
	specs, target, err := faultCorpus()
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = 2 * time.Second
	}
	limits := budget.Limits{UnitTimeout: cfg.UnitTimeout}
	units := UnitScopes(specs)
	o := &FaultOutcome{Units: units}
	if cfg.NPanic+cfg.NStall > len(units) {
		return nil, fmt.Errorf("fault case wants %d faults but corpus has only %d units",
			cfg.NPanic+cfg.NStall, len(units))
	}

	// Fault-free reference on a fresh substrate.
	ctx := context.Background()
	opts := seal.DetectRunOptions{Workers: cfg.Workers, Limits: limits}
	refRes, _, err := seal.DetectFiles(ctx, target.Files, specs, opts)
	if err != nil {
		return nil, fmt.Errorf("fault-free run: %w", err)
	}
	if n := len(refRes.Failures) + len(refRes.Degraded); n != 0 {
		o.Problems = append(o.Problems, fmt.Sprintf("fault-free run not clean: %d failures/degradations", n))
	}
	if got, want := NormalizeRecs(refRes.Recs), NormalizeRecs(detect.Records(seal.Detect(target, specs))); got != want {
		o.Problems = append(o.Problems,
			fmt.Sprintf("fault-free run diverges from sequential Detect:\n-- run --\n%s\n-- sequential --\n%s", got, want))
	}

	// Faulted run: fresh substrate again, so a panicked unit from this run
	// cannot have pre-poisoned anything.
	plan := faultinject.PlanFromSeed(cfg.Seed, "detect", units, cfg.NPanic, cfg.NStall)
	faultinject.Set(plan)
	defer faultinject.Reset()
	rec := obs.New()
	opts.Obs = rec
	gotRes, _, err := seal.DetectFiles(ctx, target.Files, specs, opts)
	if err != nil {
		return nil, fmt.Errorf("faulted run: %w", err)
	}
	o.Fired = plan.Fired()
	o.Result = gotRes
	o.Manifest = rec.BuildManifest("detect", cfg.Workers, nil, 0)

	// Exactly the fired units are quarantined, once each.
	firedKind := make(map[string]faultinject.Kind)
	for _, r := range o.Fired {
		firedKind[r.Unit] = r.Kind
	}
	if len(o.Fired) != cfg.NPanic+cfg.NStall {
		o.Problems = append(o.Problems, fmt.Sprintf("planned %d faults, %d fired", cfg.NPanic+cfg.NStall, len(o.Fired)))
	}
	quarantined := make(map[string]*budget.FailureRecord)
	for _, fr := range gotRes.Failures {
		if quarantined[fr.Unit] != nil {
			o.Problems = append(o.Problems, fmt.Sprintf("unit %q quarantined twice", fr.Unit))
		}
		quarantined[fr.Unit] = fr
	}
	if len(quarantined) != len(firedKind) {
		o.Problems = append(o.Problems, fmt.Sprintf("%d faults fired but %d units quarantined", len(firedKind), len(quarantined)))
	}
	for unit, kind := range firedKind {
		fr := quarantined[unit]
		if fr == nil {
			o.Problems = append(o.Problems, fmt.Sprintf("faulted unit %q was not quarantined", unit))
			continue
		}
		if fr.Stage != "detect" {
			o.Problems = append(o.Problems, fmt.Sprintf("unit %q: stage %q, want detect", unit, fr.Stage))
		}
		switch kind {
		case faultinject.KindPanic:
			if fr.Reason != budget.ReasonPanic {
				o.Problems = append(o.Problems, fmt.Sprintf("panicked unit %q: reason %q, want panic", unit, fr.Reason))
			}
			if fr.Stack == "" {
				o.Problems = append(o.Problems, fmt.Sprintf("panicked unit %q: FailureRecord has no stack", unit))
			}
		case faultinject.KindStall:
			if fr.Reason != budget.ReasonDeadline {
				o.Problems = append(o.Problems, fmt.Sprintf("stalled unit %q: reason %q, want deadline", unit, fr.Reason))
			}
		}
	}
	for unit := range quarantined {
		if _, planned := firedKind[unit]; !planned {
			o.Problems = append(o.Problems, fmt.Sprintf("unit %q quarantined without an injected fault", unit))
		}
	}

	// The run manifest must tell the same story: every unit accounted for,
	// and exactly the K panicked + M stalled units marked quarantined with
	// the matching reason.
	if m := o.Manifest; m == nil {
		o.Problems = append(o.Problems, "no manifest recorded for the faulted run")
	} else {
		if len(m.Units) != len(units) {
			o.Problems = append(o.Problems, fmt.Sprintf("manifest records %d units, corpus has %d", len(m.Units), len(units)))
		}
		if m.Outcomes.Quarantined != cfg.NPanic+cfg.NStall {
			o.Problems = append(o.Problems, fmt.Sprintf("manifest quarantined count %d, want %d panics + %d stalls",
				m.Outcomes.Quarantined, cfg.NPanic, cfg.NStall))
		}
		if m.Outcomes.Skipped != 0 {
			o.Problems = append(o.Problems, fmt.Sprintf("manifest reports %d skipped units in a completed run", m.Outcomes.Skipped))
		}
		for _, u := range m.Units {
			kind, fired := firedKind[u.ID]
			if (u.Outcome == obs.OutcomeQuarantined) != fired {
				o.Problems = append(o.Problems, fmt.Sprintf("manifest unit %q outcome %q disagrees with fired faults", u.ID, u.Outcome))
				continue
			}
			if !fired {
				continue
			}
			wantReason := budget.ReasonPanic
			if kind == faultinject.KindStall {
				wantReason = budget.ReasonDeadline
			}
			if u.Reason != string(wantReason) {
				o.Problems = append(o.Problems, fmt.Sprintf("manifest unit %q reason %q, want %q", u.ID, u.Reason, wantReason))
			}
		}
	}

	// Byte-identity on the survivors: the faulted run's reports must equal
	// the fault-free reports minus the quarantined units' specs.
	var refSurvivors []detect.BugRec
	for _, r := range refRes.Recs {
		if _, gone := firedKind[r.SpecScope]; !gone {
			refSurvivors = append(refSurvivors, r)
		}
	}
	if got, want := NormalizeRecs(gotRes.Recs), NormalizeRecs(refSurvivors); got != want {
		o.Problems = append(o.Problems,
			fmt.Sprintf("surviving output diverges from filtered fault-free reference:\n-- faulted --\n%s\n-- reference(filtered) --\n%s", got, want))
	}
	sort.Strings(o.Problems)
	return o, nil
}
