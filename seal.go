// Package seal is the public API of SEAL-Go, a reproduction of "SEAL:
// Towards Diverse Specification Inference for Linux Interfaces from
// Security Patches" (EuroSys 2025). It infers interface specifications —
// value-flow properties over interaction data — from security patches, and
// detects violations in other implementations and usages of the same
// interfaces.
//
// The pipeline mirrors the paper's four stages:
//
//  1. PDG construction for the pre-/post-patch programs (internal/pdg).
//  2. PDG differentiation into changed value-flow paths (internal/vfp,
//     internal/infer).
//  3. Specification abstraction (internal/infer, internal/spec).
//  4. Path-sensitive bug detection in sibling implementations
//     (internal/detect).
//
// Quick start:
//
//	res, _ := seal.InferSpecs(patches, seal.Options{Validate: true})
//	target, _ := seal.LoadFiles(tree)
//	bugs := seal.Detect(target, res.DB.Specs)
package seal

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/obs"
	"seal/internal/patch"
	"seal/internal/solver"
	"seal/internal/spec"
)

// Re-exported types: the library's public vocabulary.
type (
	// Patch is one security patch (pre/post source pairs).
	Patch = patch.Patch
	// Spec is an inferred interface specification.
	Spec = spec.Spec
	// SpecDB is a serializable specification database.
	SpecDB = spec.DB
	// Bug is a reported specification violation.
	Bug = detect.Bug
	// Limits is the per-unit resource budget (deadline, steps, memory,
	// path/depth caps, retry and failure policy).
	Limits = budget.Limits
	// FailureRecord is the structured quarantine record of one failed
	// unit of work (one patch, or one detection region group).
	FailureRecord = budget.FailureRecord
	// Degradation marks a unit that completed with budget-truncated
	// results.
	Degradation = budget.Degradation
	// DetectResult is the outcome of a fault-isolated detection run.
	DetectResult = detect.Result
	// Recorder is the observability recorder: span hierarchy, metric
	// registry, progress counters, and run-manifest builder. A nil
	// *Recorder disables observability at the cost of pointer checks.
	Recorder = obs.Recorder
	// Manifest is the deterministic JSON record of one observed run.
	Manifest = obs.Manifest
)

// NewRecorder creates a live observability recorder. Thread it through
// Options.Obs (inference) or DetectRunOptions.Obs (detection), then export
// with Recorder.BuildManifest and Registry().WritePrometheus.
func NewRecorder() *Recorder { return obs.New() }

// Target is a loaded analysis target: a linked program plus its sources.
type Target struct {
	Prog  *ir.Program
	Files map[string]string
}

// LoadFiles parses and links a set of sources (name -> kernel-C source).
func LoadFiles(files map[string]string) (*Target, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var parsed []*cir.File
	for _, n := range names {
		f, err := cir.ParseFile(n, files[n])
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	prog, err := ir.NewProgram(parsed...)
	if err != nil {
		return nil, err
	}
	return &Target{Prog: prog, Files: files}, nil
}

// LoadDir loads every .c file under root (recursively) as one target.
func LoadDir(root string) (*Target, error) {
	files, err := ReadSourceDir(root)
	if err != nil {
		return nil, err
	}
	return LoadFiles(files)
}

// Options configures specification inference.
type Options struct {
	// Validate runs the quantifier validation of paper §6.3.3: candidate
	// specs must hold inside the patched code itself. Strongly
	// recommended; defaults to true via DefaultOptions.
	Validate bool
	// Workers is the number of patches processed concurrently
	// (0 = sequential).
	Workers int
	// Limits is the per-unit resource budget applied by the context-aware
	// entry points (InferSpecsContext). The zero value is unlimited.
	Limits Limits
	// FailFast aborts the run at the first quarantined patch instead of
	// continuing with the remainder.
	FailFast bool
	// Obs, when non-nil, records one unit span per patch (with parse /
	// pdg / diff / infer / validate stage spans and budget-spend deltas)
	// under InferSpecsContext. Nil disables observability.
	Obs *Recorder
	// CacheDir enables the persistent analysis cache rooted at this
	// directory (InferSpecsContext only): per-patch results are keyed by
	// source bytes, configuration, and seal version, so a warm run over
	// an unchanged corpus replays them without analyzing anything.
	// Degraded or quarantined results are never written. Empty disables
	// the cache.
	CacheDir string
	// CacheReadOnly serves cache hits but never writes (shared or
	// archived caches).
	CacheReadOnly bool
	// CacheMaxBytes bounds the persistent cache's total on-disk size;
	// exceeding it evicts least-recently-used entries. 0 = unbounded.
	CacheMaxBytes int64
}

// DefaultOptions enables validation with sequential processing.
func DefaultOptions() Options { return Options{Validate: true} }

// PatchOutcome records one patch's inference result.
type PatchOutcome struct {
	PatchID string
	Specs   int
	Stats   infer.Stats
	Err     error
	// Failure is the quarantine record when the patch's unit of work
	// panicked, timed out, or errored under InferSpecsContext.
	Failure *FailureRecord
	// Degraded marks a patch whose inference completed but was cut short
	// by its budget (partial specs kept).
	Degraded *Degradation
	// Skipped marks a patch never attempted because the run aborted first
	// (fail-fast or max-failures).
	Skipped bool
}

// InferenceResult aggregates specification inference over a patch corpus.
type InferenceResult struct {
	DB *SpecDB
	// Outcomes has one entry per input patch, in input order.
	Outcomes []PatchOutcome
	// ZeroRelationPatches counts patches yielding no relations (paper
	// §8.2: 1,529 of 12,571).
	ZeroRelationPatches int
	// Failures lists the quarantined patches in input order.
	Failures []*FailureRecord
	// Degraded lists the budget-degraded patches in input order.
	Degraded []Degradation
	// SatChecks is the solver satisfiability-check delta attributable to
	// this run. On a fully warm cached run it is replayed from the cache's
	// run summary so exported metrics match the cold run's.
	SatChecks int64
	// PCache is the persistent analysis cache's counter snapshot; zero
	// unless Options.CacheDir was set.
	PCache CacheStats
}

// Totals sums the per-origin relation counters across all patches.
func (r *InferenceResult) Totals() infer.Stats {
	var t infer.Stats
	for _, o := range r.Outcomes {
		t.Criteria += o.Stats.Criteria
		t.PrePaths += o.Stats.PrePaths
		t.PostPaths += o.Stats.PostPaths
		t.PMinus += o.Stats.PMinus
		t.PPlus += o.Stats.PPlus
		t.PPsi += o.Stats.PPsi
		t.POmega += o.Stats.POmega
		t.Relations += o.Stats.Relations
	}
	return t
}

// InferSpecs runs stages ①–③ on every patch and returns the merged,
// deduplicated specification database.
func InferSpecs(patches []*Patch, opts Options) (*InferenceResult, error) {
	res := &InferenceResult{
		DB:       &SpecDB{},
		Outcomes: make([]PatchOutcome, len(patches)),
	}
	specLists := make([][]*Spec, len(patches))

	run := func(i int) {
		p := patches[i]
		out := PatchOutcome{PatchID: p.ID}
		a, err := p.Analyze()
		if err != nil {
			out.Err = err
			res.Outcomes[i] = out
			return
		}
		ir := infer.InferPatch(a)
		specs := ir.Specs
		if opts.Validate {
			specs = detect.ValidateSpecs(a.PostProg, specs)
		}
		out.Stats = ir.Stats
		out.Specs = len(specs)
		res.Outcomes[i] = out
		specLists[i] = specs
	}

	if opts.Workers > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, opts.Workers)
		for i := range patches {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range patches {
			run(i)
		}
	}

	var firstErr error
	for i := range res.Outcomes {
		if res.Outcomes[i].Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("patch %s: %w", res.Outcomes[i].PatchID, res.Outcomes[i].Err)
		}
		if res.Outcomes[i].Err == nil && len(specLists[i]) == 0 {
			res.ZeroRelationPatches++
		}
		res.DB.Specs = append(res.DB.Specs, specLists[i]...)
	}
	res.DB.Dedup()
	return res, firstErr
}

// InferSpecsContext is InferSpecs with fault isolation: every patch runs as
// one unit of work under ctx, opts.Limits, and panic containment. A patch
// that panics, outlives its per-unit deadline, stalls, or errors is
// quarantined — recorded as a FailureRecord on its outcome and in
// res.Failures — without disturbing any other patch; a patch that merely
// exhausts a quantitative budget completes Degraded with its partial specs
// kept. With opts.Limits.Retry, a quarantined patch is re-attempted once
// with a halved budget.
//
// The returned error is non-nil only for run-level aborts: the context was
// canceled, opts.FailFast hit its first failure, or more than
// opts.Limits.MaxFailures patches were quarantined. Per-patch problems are
// never an error here (unlike InferSpecs) — callers decide how to surface
// quarantines (cmd/seal exits 3).
func InferSpecsContext(ctx context.Context, patches []*Patch, opts Options) (*InferenceResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	res := &InferenceResult{
		DB:       &SpecDB{},
		Outcomes: make([]PatchOutcome, len(patches)),
	}
	specLists := make([][]*Spec, len(patches))

	pc, cerr := openCache(opts.CacheDir, opts.CacheReadOnly, opts.CacheMaxBytes)
	if cerr != nil {
		return res, cerr
	}
	sat0 := solver.SatChecks()
	var patchKeys []string
	if pc.Enabled() {
		patchKeys = make([]string, len(patches))
		for i, p := range patches {
			patchKeys[i] = inferPatchKey(p, opts)
		}
	}
	var cacheHits atomic.Int64

	var failures atomic.Int64
	var aborted atomic.Bool
	rec := opts.Obs
	rec.SetUnitsTotal(len(patches))

	attempt := func(p *Patch, lim Limits, attemptNo int, span *obs.Span) (out []*Spec, st infer.Stats, fr *FailureRecord, deg *Degradation, spend budget.Spend) {
		b := budget.New(ctx, lim)
		defer b.Close()
		// pprof goroutine labels attribute CPU samples to the patch (one
		// label-set swap per unit, not per operation).
		obs.WithUnitLabels(ctx, "infer", p.ID, func(context.Context) {
			fr = budget.Protect("infer", p.ID, b, func() error {
				if err := faultinject.Fire(b.Context(), "infer", p.ID, b); err != nil {
					return err
				}
				ps := span.StartStage("parse")
				a, err := p.Analyze()
				ps.End()
				if err != nil {
					return err
				}
				ir := infer.InferPatchObs(a, b, span)
				sp := ir.Specs
				if opts.Validate {
					steps0 := b.StepsSpent()
					vs := span.StartStage("validate")
					sp = detect.ValidateSpecsBudget(a.PostProg, sp, b)
					vs.EndWithSpend(b.StepsSpent()-steps0, 0)
				}
				out, st = sp, ir.Stats
				return nil
			})
		})
		spend = b.Spend()
		if fr != nil {
			fr.Attempts = attemptNo
			return nil, st, fr, nil, spend
		}
		if ex := b.Exhausted(); ex != nil {
			deg = &Degradation{Unit: p.ID, Stage: "infer", Reason: ex.Reason, Detail: ex.Error()}
		}
		return out, st, nil, deg, spend
	}

	run := func(i int) {
		p := patches[i]
		out := PatchOutcome{PatchID: p.ID}
		if aborted.Load() || ctx.Err() != nil {
			out.Skipped = true
			if span := rec.Unit("infer", p.ID); span != nil {
				span.SetOutcome(obs.OutcomeSkipped, "aborted")
				span.End()
			}
			res.Outcomes[i] = out
			return
		}
		span := rec.Unit("infer", p.ID)
		if pc.Enabled() {
			var ent inferCacheEntry
			if pc.Get(cache.TierInfer, patchKeys[i], &ent) && ent.DB != nil {
				// Warm hit: replay the result and re-record the unit span
				// with the cold run's stage structure (zero durations —
				// redaction zeroes them anyway) so manifests agree.
				cacheHits.Add(1)
				out.Stats = ent.Stats
				out.Specs = len(ent.DB.Specs)
				specLists[i] = ent.DB.Specs
				if span != nil {
					span.AddStage("parse", 0, 0)
					span.AddStage("pdg", 0, 0)
					span.AddStage("diff", 0, 0)
					span.AddStage("infer", 0, 0)
					if opts.Validate {
						span.AddStage("validate", 0, 0)
					}
					span.SetCounts(out.Specs, 0)
					span.End()
				}
				res.Outcomes[i] = out
				return
			}
		}
		attempts := 1
		specs, st, fr, deg, spend := attempt(p, opts.Limits, 1, span)
		if fr != nil && opts.Limits.Retry {
			attempts = 2
			specs, st, fr, deg, spend = attempt(p, opts.Limits.Halved(), 2, span)
		}
		out.Stats = st
		out.Failure = fr
		out.Degraded = deg
		if fr != nil {
			out.Err = fmt.Errorf("%s: %s", fr.Reason, fr.Detail)
			if n := failures.Add(1); opts.FailFast || (opts.Limits.MaxFailures > 0 && n > int64(opts.Limits.MaxFailures)) {
				aborted.Store(true)
			}
		} else {
			out.Specs = len(specs)
			specLists[i] = specs
		}
		if pc.Enabled() {
			// Only full-fidelity results are persisted: a degraded
			// (budget-truncated) or quarantined result must never poison a
			// later full-budget run.
			if fr == nil && deg == nil {
				pc.Put(cache.TierInfer, patchKeys[i], &inferCacheEntry{
					DB:    &SpecDB{Specs: specs},
					Stats: st,
				})
			} else {
				pc.NoteUncacheable()
			}
		}
		if span != nil {
			if attempts > 1 {
				span.SetAttempts(attempts)
			}
			span.SetCounts(len(specs), 0)
			switch {
			case fr != nil:
				span.SetOutcome(obs.OutcomeQuarantined, string(fr.Reason))
			case deg != nil:
				span.SetOutcome(obs.OutcomeDegraded, string(deg.Reason))
				span.Annotate("degraded", deg.Detail)
			}
			span.EndWithSpend(spend.Steps, spend.MemBytes)
		}
		res.Outcomes[i] = out
	}

	if opts.Workers > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, opts.Workers)
		for i := range patches {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				run(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range patches {
			run(i)
		}
	}

	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Failure != nil {
			res.Failures = append(res.Failures, o.Failure)
		}
		if o.Degraded != nil {
			res.Degraded = append(res.Degraded, *o.Degraded)
		}
		if o.Failure == nil && !o.Skipped && len(specLists[i]) == 0 {
			res.ZeroRelationPatches++
		}
		res.DB.Specs = append(res.DB.Specs, specLists[i]...)
	}
	res.DB.Dedup()

	res.SatChecks = solver.SatChecks() - sat0
	if pc.Enabled() && len(patches) > 0 {
		rkey := inferRunKey(patchKeys)
		switch {
		case cacheHits.Load() == int64(len(patches)):
			// Fully warm: replay the cold run's solver-check figure so the
			// exported seal_solver_sat_checks_total (preserved by manifest
			// redaction) matches byte for byte.
			var ent inferRunEntry
			if pc.Get(cache.TierInferRun, rkey, &ent) {
				res.SatChecks = ent.SatChecks
			}
		case cacheHits.Load() == 0 && len(res.Failures) == 0 && len(res.Degraded) == 0 &&
			!aborted.Load() && ctx.Err() == nil:
			// Fully cold and fully clean: this run's figure IS the
			// canonical one for the corpus.
			pc.Put(cache.TierInferRun, rkey, &inferRunEntry{SatChecks: res.SatChecks})
		}
		res.PCache = pc.Stats()
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if aborted.Load() {
		if opts.FailFast {
			return res, fmt.Errorf("infer: aborted on first quarantined patch (fail-fast)")
		}
		return res, fmt.Errorf("infer: aborted after %d quarantined patches (max %d)",
			len(res.Failures), opts.Limits.MaxFailures)
	}
	return res, nil
}

// Detect runs stage ④: check every specification against the target and
// return the deduplicated bug reports. It is the sequential reference;
// DetectFiles, DetectDir, and Resident.Detect add caching, budgets, and
// parallel region groups with byte-identical output.
func Detect(t *Target, specs []*Spec) []*Bug {
	d := detect.New(t.Prog)
	return d.Detect(specs)
}

// DetectStats are the shared-substrate instrumentation counters.
type DetectStats = detect.Stats

// MergeSpecDBs unions specification databases, deduplicating by constraint
// identity while keeping first-seen provenance. This supports the paper's
// suggested maintainer workflow (§9): "once new patches are merged,
// proactively run SEAL to expand the dataset".
func MergeSpecDBs(dbs ...*SpecDB) *SpecDB {
	out := &SpecDB{}
	for _, db := range dbs {
		if db != nil {
			out.Specs = append(out.Specs, db.Specs...)
		}
	}
	out.Dedup()
	return out
}

// NewDetector exposes the underlying detector for fine-grained use
// (regions, per-spec checks, ablation switches).
func NewDetector(t *Target) *detect.Detector {
	return detect.New(t.Prog)
}
