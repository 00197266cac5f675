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

	"seal/internal/budget"
	"seal/internal/cache"
	"seal/internal/cir"
	"seal/internal/detect"
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
	// Workers is the number of patches processed concurrently under
	// InferSpecsContext (0 or 1 = one at a time); InferSpecs is the
	// sequential reference and always runs them in order.
	Workers int
	// Limits is the per-unit resource budget applied by InferSpecsContext.
	// The zero value is unlimited.
	Limits Limits
	// FailFast aborts the run at the first quarantined patch instead of
	// continuing with the remainder.
	FailFast bool
	// Obs, when non-nil, records one unit span per patch (with parse /
	// pdg / diff / infer / validate stage spans and budget-spend deltas)
	// under InferSpecsContext. Nil disables observability.
	Obs *Recorder
	// Cache is the persistent analysis cache (InferSpecsContext only):
	// per-patch results are keyed by source bytes, configuration, and seal
	// version, so a warm run over an unchanged corpus replays them without
	// analyzing anything. Degraded or quarantined results are never
	// written. Nil disables the cache.
	Cache *Cache
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
	// Solver is the solver work of an InferSpecsContext run: the sum over
	// its patches, each computed by its unit of work (both attempts,
	// quarantined and degraded patches included) or replayed from the
	// patch's cache entry.
	Solver solver.Tally
	// PCache is Options.Cache's counter snapshot at the end of the run:
	// this run's lookups and writes and whatever the handle counted
	// before (a View counts only its own). Zero without a cache.
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

// InferSpecs runs stages ①–③ on every patch, in input order, and returns
// the merged, deduplicated specification database. It is the sequential
// reference; InferSpecsContext adds budgets, fault isolation, caching,
// observability, and parallel patches with byte-identical output.
func InferSpecs(patches []*Patch, opts Options) (*InferenceResult, error) {
	res := &InferenceResult{
		DB:       &SpecDB{},
		Outcomes: make([]PatchOutcome, len(patches)),
	}
	var firstErr error
	for i, p := range patches {
		out := &res.Outcomes[i]
		out.PatchID = p.ID
		a, err := p.Analyze()
		if err != nil {
			out.Err = err
			if firstErr == nil {
				firstErr = fmt.Errorf("patch %s: %w", p.ID, err)
			}
			continue
		}
		ir := infer.InferPatch(a)
		specs := ir.Specs
		if opts.Validate {
			specs = detect.ValidateSpecs(a.PostProg, specs)
		}
		out.Stats = ir.Stats
		out.Specs = len(specs)
		if len(specs) == 0 {
			res.ZeroRelationPatches++
		}
		res.DB.Specs = append(res.DB.Specs, specs...)
	}
	res.DB.Dedup()
	return res, firstErr
}

// InferSpecsContext is InferSpecs with fault isolation: every patch runs as
// one unit of work (budget.Runner) under ctx, opts.Limits, and panic
// containment. A patch that panics, outlives its per-unit deadline, stalls,
// or errors is quarantined — recorded as a FailureRecord on its outcome and
// in res.Failures — without disturbing any other patch; a patch that merely
// exhausts a quantitative budget completes Degraded with its partial specs
// kept. With opts.Limits.Retry, a quarantined patch is re-attempted once
// with a halved budget. With opts.Cache, cached patches are replayed up
// front, only the missed ones run, and the clean ones are written back.
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
	pc := opts.Cache
	rec := opts.Obs
	rec.SetUnitsTotal(len(patches))
	// Each patch's payload, replayed or computed, in its cache-entry form.
	units := make([]inferCacheEntry, len(patches))
	keys := make([]string, len(patches)) // "" = cache disabled
	hit := make([]bool, len(patches))
	if pc.Enabled() {
		// Probe on the run's workers: decoding entries is most of a warm
		// run.
		budget.Each(opts.Workers, len(patches), func(i int) {
			keys[i] = inferPatchKey(patches[i], opts)
			if hit[i] = pc.Get(cache.TierInfer, keys[i], &units[i]); !hit[i] {
				units[i] = inferCacheEntry{} // a failed decode may leave fields set
			}
		})
	}
	// A replayed patch's unit span has the computing run's stage structure,
	// so warm and cold manifests agree.
	stages := []obs.StageManifest{{Name: "parse"}, {Name: "pdg"}, {Name: "diff"}, {Name: "infer"}}
	if opts.Validate {
		stages = append(stages, obs.StageManifest{Name: "validate"})
	}
	var missed []int
	var ids []string
	for i, p := range patches {
		if hit[i] {
			rec.ReplayUnit(obs.UnitManifest{Stage: "infer", ID: p.ID, Specs: len(units[i].DB.Specs), Stages: stages})
		} else {
			missed, ids = append(missed, i), append(ids, p.ID)
		}
	}

	verdicts, aborted := budget.Runner{
		Stage:    "infer",
		Workers:  opts.Workers,
		Limits:   opts.Limits,
		FailFast: opts.FailFast,
		Obs:      rec,
		Body: func(k int, b *budget.Budget, span *obs.Span) error {
			u := &units[missed[k]]
			ps := span.StartStage("parse")
			a, err := patches[missed[k]].Analyze()
			ps.End()
			if err != nil {
				return err
			}
			ir := infer.InferPatchObs(a, b, span, &u.Solver)
			specs := ir.Specs
			if opts.Validate {
				steps0 := b.StepsSpent()
				vs := span.StartStage("validate")
				specs = detect.ValidateSpecsBudget(a.PostProg, specs, b, &u.Solver)
				vs.EndWithSpend(b.StepsSpent()-steps0, 0)
			}
			u.DB.Specs, u.Stats = specs, ir.Stats
			return nil
		},
		Finish: func(k int, span *obs.Span) {
			span.SetCounts(len(units[missed[k]].DB.Specs), 0)
		},
	}.Run(ctx, ids)
	byPatch := make([]budget.Verdict, len(patches)) // a replayed patch's stays zero
	for k, v := range verdicts {
		byPatch[missed[k]] = v
	}
	for i, p := range patches {
		v, out, u := byPatch[i], &res.Outcomes[i], &units[i]
		out.PatchID, out.Stats = p.ID, u.Stats
		out.Skipped, out.Failure, out.Degraded = v.Skipped, v.Failure, v.Degraded
		res.Solver.Add(u.Solver)
		// Only full-fidelity results are persisted: a degraded
		// (budget-truncated) or quarantined result must never poison a
		// later full-budget run.
		switch {
		case v.Skipped:
			continue
		case v.Failure != nil:
			out.Err = fmt.Errorf("%s: %s", v.Failure.Reason, v.Failure.Detail)
			res.Failures = append(res.Failures, v.Failure)
			pc.NoteUncacheable()
			continue
		case v.Degraded != nil:
			res.Degraded = append(res.Degraded, *v.Degraded)
			pc.NoteUncacheable()
		case !hit[i]:
			pc.Put(cache.TierInfer, keys[i], u)
		}
		out.Specs = len(u.DB.Specs)
		if out.Specs == 0 {
			res.ZeroRelationPatches++
		}
		res.DB.Specs = append(res.DB.Specs, u.DB.Specs...)
	}
	res.DB.Dedup()
	res.PCache = pc.Stats()

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if aborted {
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
// DetectFiles and Resident.Detect add caching, budgets, and parallel
// region groups with byte-identical output.
func Detect(t *Target, specs []*Spec) []*Bug {
	d := detect.New(t.Prog)
	return d.Detect(specs)
}

// DetectStats are detection's instrumentation counters: the substrate work
// each region group's own detectors caused, summed over groups.
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
