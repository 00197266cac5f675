// Package difftest is the differential and metamorphic testing subsystem:
// it runs generated patch cases (internal/randprog) through the pipeline
// twice — a reference configuration (sequential inference, sequential
// detection) and optimized configurations (parallel inference, parallel
// detection) — and checks that the normalized results are byte-identical.
// Because every generated case carries its own injected violation, the
// runner also checks the ground-truth oracle: the inferred specification
// must flag exactly the rule-violating siblings.
//
// Any future perf work (sharding, caching, new backends) must keep this
// package green: silent result divergence, not crashes, is how such bugs
// manifest.
package difftest

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"seal"
	"seal/internal/detect"
	"seal/internal/patch"
	"seal/internal/randprog"
	"seal/internal/spec"
)

// WorkerCounts are the optimized configurations checked against the
// sequential reference.
var WorkerCounts = []int{2, 4, 8}

// NormalizeBugs renders a bug list in canonical form: one line per report,
// already in the detector's deterministic order. Two runs agree iff the
// normalized strings are byte-identical.
func NormalizeBugs(bugs []*detect.Bug) string {
	var sb strings.Builder
	for _, b := range bugs {
		fmt.Fprintf(&sb, "%s|%s|%s|%s\n", b.Kind, b.Fn.Name, b.Fn.File, b.Spec.Key())
	}
	return sb.String()
}

// NormalizeDB renders a specification database in canonical form,
// preserving order (inference order is part of the determinism contract).
func NormalizeDB(db *spec.DB) string {
	var sb strings.Builder
	for _, s := range db.Specs {
		fmt.Fprintf(&sb, "%s|%s|%s|%s\n", s.ID, s.Key(), s.Origin, s.OriginPatch)
	}
	return sb.String()
}

// NormalizeRecs renders serialized bug records in canonical form — the
// complete record, so a cache replay diverging in any rendered field
// (message, trace, spec provenance) is caught, not just the headline.
func NormalizeRecs(recs []detect.BugRec) string {
	data, err := json.Marshal(recs)
	if err != nil {
		return fmt.Sprintf("marshal error: %v", err)
	}
	return string(data)
}

// Divergence describes one reference-vs-optimized mismatch.
type Divergence struct {
	Stage string // "infer" or "detect"
	Conf  string // the optimized configuration ("workers=4", …)
	Ref   string // normalized reference result
	Got   string // normalized optimized result
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s diverges at %s:\n-- reference --\n%s-- optimized --\n%s",
		d.Stage, d.Conf, d.Ref, d.Got)
}

// CaseResult is the oracle verdict for one generated case.
type CaseResult struct {
	Case *randprog.PatchCase
	// Specs is the reference-inferred database.
	Specs *spec.DB
	// Bugs is the reference detection result.
	Bugs []*detect.Bug
	// Divergences lists every reference-vs-optimized mismatch (empty on a
	// healthy pipeline).
	Divergences []Divergence
	// MissedFuncs are ground-truth buggy siblings detection did not flag.
	MissedFuncs []string
	// SpuriousFuncs are rule-abiding siblings detection flagged.
	SpuriousFuncs []string
}

// Ok reports whether the case passed both oracles.
func (r *CaseResult) Ok() bool {
	return len(r.Divergences) == 0 && len(r.MissedFuncs) == 0 && len(r.SpuriousFuncs) == 0
}

// Report renders a reproduction-oriented failure summary.
func (r *CaseResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "case seed=%d kind=%s: ", r.Case.Seed, r.Case.Kind)
	if r.Ok() {
		sb.WriteString("ok")
		return sb.String()
	}
	fmt.Fprintf(&sb, "FAIL (reproduce with randprog.GenPatchCase(%d))\n", r.Case.Seed)
	for _, d := range r.Divergences {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	if len(r.MissedFuncs) > 0 {
		fmt.Fprintf(&sb, "missed ground-truth bugs: %v\n", r.MissedFuncs)
	}
	if len(r.SpuriousFuncs) > 0 {
		fmt.Fprintf(&sb, "spurious reports on correct siblings: %v\n", r.SpuriousFuncs)
	}
	return sb.String()
}

// RunCase executes the full differential protocol for one case:
//
//	reference: InferSpecs (sequential) then Detect
//	optimized: InferSpecsContext{Workers:N} and DetectFiles{Workers:N} for each
//	           N in WorkerCounts, a sequential re-run (determinism), and a
//	           reused resident substrate (parallel, then sequential on the
//	           same graph).
func RunCase(c *randprog.PatchCase) (*CaseResult, error) {
	r := &CaseResult{Case: c}

	refInfer, err := seal.InferSpecs([]*patch.Patch{c.Patch}, seal.Options{Validate: true})
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference inference: %w", c.Seed, err)
	}
	r.Specs = refInfer.DB
	refDB := NormalizeDB(refInfer.DB)

	// Inference determinism + worker independence.
	for _, n := range append([]int{1}, WorkerCounts...) {
		again, err := seal.InferSpecsContext(context.Background(), []*patch.Patch{c.Patch}, seal.Options{Validate: true, Workers: n})
		if err == nil && len(again.Failures) > 0 {
			err = fmt.Errorf("%s", again.Failures[0])
		}
		if err != nil {
			return nil, fmt.Errorf("seed %d: inference workers=%d: %w", c.Seed, n, err)
		}
		if got := NormalizeDB(again.DB); got != refDB {
			r.Divergences = append(r.Divergences, Divergence{
				Stage: "infer", Conf: fmt.Sprintf("workers=%d", n), Ref: refDB, Got: got,
			})
		}
	}

	target, err := seal.LoadFiles(c.Target)
	if err != nil {
		return nil, fmt.Errorf("seed %d: target: %w", c.Seed, err)
	}
	r.Bugs = seal.Detect(target, refInfer.DB.Specs)
	refBugs := NormalizeBugs(r.Bugs)

	// Detection determinism: a second sequential run on a fresh detector.
	if got := NormalizeBugs(seal.Detect(target, refInfer.DB.Specs)); got != refBugs {
		r.Divergences = append(r.Divergences, Divergence{
			Stage: "detect", Conf: "rerun", Ref: refBugs, Got: got,
		})
	}
	// Parallel detection equivalence (the region-group scheduler over a
	// fresh shared substrate per run), compared on the full records.
	ctx := context.Background()
	refRecs := NormalizeRecs(detect.Records(r.Bugs))
	for _, n := range WorkerCounts {
		res, _, err := seal.DetectFiles(ctx, c.Target, refInfer.DB.Specs, seal.DetectRunOptions{Workers: n})
		if err != nil {
			return nil, fmt.Errorf("seed %d: detection workers=%d: %w", c.Seed, n, err)
		}
		if got := NormalizeRecs(res.Recs); got != refRecs {
			r.Divergences = append(r.Divergences, Divergence{
				Stage: "detect", Conf: fmt.Sprintf("workers=%d", n), Ref: refRecs, Got: got,
			})
		}
	}
	// Substrate-reuse equivalence: one resident substrate serving a
	// parallel run and then a sequential run on the already-materialized
	// graph must produce the reference output both times (build-set
	// independence).
	res := seal.NewResident(target)
	par, _, err := res.Detect(ctx, seal.PlanGroups(refInfer.DB.Specs), seal.DetectRunOptions{Workers: 4})
	if err != nil {
		return nil, fmt.Errorf("seed %d: resident detection: %w", c.Seed, err)
	}
	if got := NormalizeRecs(par.Recs); got != refRecs {
		r.Divergences = append(r.Divergences, Divergence{
			Stage: "detect", Conf: "shared-substrate workers=4", Ref: refRecs, Got: got,
		})
	}
	if got := NormalizeBugs(res.Detector().Detect(refInfer.DB.Specs)); got != refBugs {
		r.Divergences = append(r.Divergences, Divergence{
			Stage: "detect", Conf: "shared-substrate sequential reuse", Ref: refBugs, Got: got,
		})
	}

	// Ground-truth oracle: flagged functions must be exactly the buggy
	// siblings (for the injected kind).
	flagged := make(map[string]bool)
	for _, b := range r.Bugs {
		flagged[b.Fn.Name] = true
	}
	for _, fn := range c.BuggyFuncs {
		if !flagged[fn] {
			r.MissedFuncs = append(r.MissedFuncs, fn)
		}
	}
	for _, fn := range c.CorrectFuncs {
		if flagged[fn] {
			r.SpuriousFuncs = append(r.SpuriousFuncs, fn)
		}
	}
	sort.Strings(r.MissedFuncs)
	sort.Strings(r.SpuriousFuncs)
	return r, nil
}

// RunCacheCase is the persistent-cache differential protocol for one case:
// an uncached reference run, a cold cached run (populates cacheDir), and a
// warm cached run (must replay from disk) — all three must normalize
// byte-identically for both the inferred database and the bug records,
// and the warm run must actually hit. The cache is opened once; each run
// counts on a view of its own. Returns the divergences.
func RunCacheCase(c *randprog.PatchCase, cacheDir string) ([]Divergence, error) {
	ctx := context.Background()
	pc, err := seal.OpenCache(cacheDir, false, 0)
	if err != nil {
		return nil, err
	}
	ref, err := seal.InferSpecsContext(ctx, []*patch.Patch{c.Patch}, seal.Options{Validate: true})
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference inference: %w", c.Seed, err)
	}
	refDB := NormalizeDB(ref.DB)

	var divs []Divergence
	for _, conf := range []string{"cache-cold", "cache-warm"} {
		got, err := seal.InferSpecsContext(ctx, []*patch.Patch{c.Patch}, seal.Options{
			Validate: true, Cache: pc.View(),
		})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %s inference: %w", c.Seed, conf, err)
		}
		if n := NormalizeDB(got.DB); n != refDB {
			divs = append(divs, Divergence{Stage: "infer", Conf: conf, Ref: refDB, Got: n})
		}
		if conf == "cache-warm" && got.PCache.Hits == 0 {
			divs = append(divs, Divergence{Stage: "infer", Conf: conf,
				Ref: "warm run served from cache", Got: fmt.Sprintf("stats %+v", got.PCache)})
		}
	}

	refDet, _, err := seal.DetectFiles(ctx, c.Target, ref.DB.Specs, seal.DetectRunOptions{})
	if err != nil {
		return nil, fmt.Errorf("seed %d: reference detection: %w", c.Seed, err)
	}
	refBugs := NormalizeRecs(refDet.Recs)
	for _, conf := range []string{"cache-cold", "cache-warm"} {
		got, _, err := seal.DetectFiles(ctx, c.Target, ref.DB.Specs, seal.DetectRunOptions{
			Cache: pc.View(),
		})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %s detection: %w", c.Seed, conf, err)
		}
		if n := NormalizeRecs(got.Recs); n != refBugs {
			divs = append(divs, Divergence{Stage: "detect", Conf: conf, Ref: refBugs, Got: n})
		}
		if conf == "cache-warm" && got.PCache.Hits == 0 {
			divs = append(divs, Divergence{Stage: "detect", Conf: conf,
				Ref: "warm run served from cache", Got: fmt.Sprintf("stats %+v", got.PCache)})
		}
	}
	return divs, nil
}
