package difftest

// Native fuzz targets over the top-level pipeline. Run with
//
//	go test -run='^$' -fuzz=FuzzInferPatch ./internal/difftest
//	go test -run='^$' -fuzz=FuzzDetectDifferential ./internal/difftest
//	go test -run='^$' -fuzz=FuzzDetectBudget ./internal/difftest
//
// Seed corpora live in testdata/fuzz/<target>/ (regenerate with
// `go run ./internal/difftest/gencorpus`).

import (
	"context"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"seal"
	"seal/internal/budget"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/patch"
	"seal/internal/randprog"
	"seal/internal/spec"
)

// FuzzInferPatch feeds arbitrary (pre, post) source pairs through stages
// ①–③: diffing, linking, PDG differentiation, spec abstraction, and
// quantifier validation must never panic, and whatever database comes out
// must survive a JSON round trip unchanged.
func FuzzInferPatch(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7} {
		c := randprog.GenPatchCase(seed)
		for file := range c.Patch.Pre {
			f.Add(c.Patch.Pre[file], c.Patch.Post[file])
		}
	}
	f.Add("int f() { return 0; }\n", "int f() { return 1; }\n")
	f.Add("", "int g(int *p) { return p[2]; }\n")
	f.Fuzz(func(t *testing.T, pre, post string) {
		if len(pre)+len(post) > 32<<10 {
			t.Skip("oversized input")
		}
		p := &patch.Patch{ID: "fuzz", Pre: map[string]string{"a.c": pre}, Post: map[string]string{"a.c": post}}
		a, err := p.Analyze()
		if err != nil {
			return // unparsable inputs are rejected, not crashed on
		}
		res := infer.InferPatch(a)
		specs := detect.ValidateSpecs(a.PostProg, res.Specs)
		db := &spec.DB{Specs: specs}
		before := NormalizeDB(db)
		data, err := json.Marshal(db)
		if err != nil {
			t.Fatalf("marshal inferred DB: %v", err)
		}
		var back spec.DB
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal inferred DB: %v", err)
		}
		if got := NormalizeDB(&back); got != before {
			t.Fatalf("JSON round trip changed DB:\n%s\nvs\n%s", got, before)
		}
	})
}

// fuzzSpecs is a fixed specification set (inferred once from generated
// cases of every mutation kind) that FuzzDetectDifferential checks
// arbitrary parsed programs against.
var (
	fuzzSpecsOnce sync.Once
	fuzzSpecs     []*spec.Spec
	fuzzSpecsErr  error
)

func getFuzzSpecs() ([]*spec.Spec, error) {
	fuzzSpecsOnce.Do(func() {
		var dbs []*spec.DB
		for _, seed := range []int64{0, 1, 2} { // one seed per mutation kind
			c := randprog.GenPatchCase(seed)
			res, err := seal.InferSpecs([]*patch.Patch{c.Patch}, seal.Options{Validate: true})
			if err != nil {
				fuzzSpecsErr = err
				return
			}
			dbs = append(dbs, res.DB)
		}
		fuzzSpecs = seal.MergeSpecDBs(dbs...).Specs
	})
	return fuzzSpecs, fuzzSpecsErr
}

// FuzzDetectDifferential is the differential fuzz target: for any program
// the frontend accepts, sequential detection and parallel detection (2 and
// 4 workers) over a fixed spec database must agree byte-for-byte, and
// repeated sequential runs must be deterministic.
func FuzzDetectDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 5} {
		c := randprog.GenPatchCase(seed)
		for _, name := range sortedKeys(c.Target) {
			f.Add(c.Target[name])
		}
	}
	f.Add("int lone() { return 0; }\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 {
			t.Skip("oversized input")
		}
		specs, err := getFuzzSpecs()
		if err != nil {
			t.Fatalf("building fuzz spec set: %v", err)
		}
		files := map[string]string{"fuzz.c": src}
		target, err := seal.LoadFiles(files)
		if err != nil {
			return
		}
		ref := NormalizeBugs(seal.Detect(target, specs))
		if got := NormalizeBugs(seal.Detect(target, specs)); got != ref {
			t.Fatalf("sequential detection nondeterministic:\n%s\nvs\n%s", got, ref)
		}
		refRecs := NormalizeRecs(detect.Records(seal.Detect(target, specs)))
		for _, n := range []int{2, 4} {
			res, _, err := seal.DetectFiles(context.Background(), files, specs, seal.DetectRunOptions{Workers: n})
			if err != nil {
				t.Fatalf("workers=%d: %v", n, err)
			}
			if got := NormalizeRecs(res.Recs); got != refRecs {
				t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", n, got, refRecs)
			}
		}
	})
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FuzzDetectBudget is the robustness fuzz target: detection under an
// arbitrary (possibly absurdly tiny) step/memory/path/depth budget must
// never panic and must terminate. Quantitative budgets degrade results,
// they never quarantine units, and — because step/memory metering involves
// no wall clock — a repeated single-worker run over a fresh substrate must
// be byte-identical.
func FuzzDetectBudget(f *testing.F) {
	for i, seed := range []int64{0, 1, 2} {
		c := randprog.GenPatchCase(seed)
		for _, name := range sortedKeys(c.Target) {
			f.Add(c.Target[name], int64(50*(i+1)), int64(1<<10), 2, 3)
			break
		}
	}
	f.Add("int lone() { return 0; }\n", int64(1), int64(1), 1, 1)
	f.Fuzz(func(t *testing.T, src string, maxSteps, maxMem int64, maxPaths, maxDepth int) {
		if len(src) > 32<<10 {
			t.Skip("oversized input")
		}
		specs, err := getFuzzSpecs()
		if err != nil {
			t.Fatalf("building fuzz spec set: %v", err)
		}
		files := map[string]string{"fuzz.c": src}
		if _, err := seal.LoadFiles(files); err != nil {
			return
		}
		lim := budget.Limits{MaxSteps: maxSteps, MaxMemBytes: maxMem, MaxPaths: maxPaths, MaxDepth: maxDepth}
		run := func(workers int) *detect.Result {
			res, _, err := seal.DetectFiles(context.Background(), files, specs, seal.DetectRunOptions{Workers: workers, Limits: lim})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			return res
		}
		ref := run(1)
		for _, fr := range ref.Failures {
			t.Fatalf("quantitative budget must degrade, not quarantine: %s", fr)
		}
		if got, want := NormalizeRecs(run(1).Recs), NormalizeRecs(ref.Recs); got != want {
			t.Fatalf("budgeted detection nondeterministic at workers=1:\n%s\nvs\n%s", got, want)
		}
		for _, fr := range run(4).Failures {
			t.Fatalf("workers=4: quantitative budget must degrade, not quarantine: %s", fr)
		}
	})
}
