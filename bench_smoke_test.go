package seal

// Smoke coverage for the benchmark harness: every benchmark body in
// bench_test.go runs here for exactly one iteration under the ordinary
// `go test` (and `-race`) runs, so a refactor that breaks a bench surfaces
// in CI instead of waiting for the next manual `go test -bench=.`.

import (
	"context"
	"testing"

	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/patch"
	"seal/internal/pdg"
)

// TestBenchSmoke runs one iteration of each benchmark body. Skipped under
// -short: it rebuilds the full evaluation run, which dominates quick edit
// loops.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke skipped in -short mode")
	}
	r := getBenchRun(t)

	t.Run("RQ1_Precision", func(t *testing.T) {
		q := r.HeadlineRQ1()
		if q.Reports == 0 {
			t.Error("headline run produced no reports")
		}
		if q.Precision <= 0 || q.Precision > 1 {
			t.Errorf("precision %v out of (0,1]", q.Precision)
		}
	})
	t.Run("Table1_BugSamples", func(t *testing.T) {
		if rows := len(r.Table1(45)); rows == 0 {
			t.Error("empty bug-sample table")
		}
	})
	t.Run("Table2_BugTypes", func(t *testing.T) {
		if kinds := len(r.Table2()); kinds == 0 {
			t.Error("empty bug-type distribution")
		}
	})
	t.Run("Fig8a_LatentYears", func(t *testing.T) {
		if f := r.LatentYears(); f.Mean < 0 {
			t.Errorf("negative mean latent age %v", f.Mean)
		}
	})
	t.Run("Fig8b_ViolationsPerSpec", func(t *testing.T) {
		if f := r.ViolationsPerSpec(); f.Over5 < 0 || f.Over5 > 1 {
			t.Errorf("over-5 share %v out of [0,1]", f.Over5)
		}
	})
	t.Run("Fig10_ToolCoverage_and_RQ3_Baselines", func(t *testing.T) {
		res := r.RunBaselines()
		if len(res.SEALFoundKinds) == 0 {
			t.Error("SEAL coverage empty")
		}
		if p := res.APHPPrecision(); p < 0 || p > 1 {
			t.Errorf("APHP precision %v out of [0,1]", p)
		}
		if p := res.CRIXPrecision(); p < 0 || p > 1 {
			t.Errorf("CRIX precision %v out of [0,1]", p)
		}
	})
	t.Run("RQ2_SpecStats", func(t *testing.T) {
		q := r.SpecCharacteristics()
		if q.PPlus+q.PMinus+q.PPsi+q.POmega == 0 {
			t.Error("no relation origins recorded")
		}
	})
	t.Run("RQ4_InferencePerPatch", func(t *testing.T) {
		corpus := kernelgen.Generate(kernelgen.DefaultConfig())
		var famPatch *patch.Patch
		for _, p := range corpus.Patches {
			if p.Tags["family"] == "wrongec" {
				famPatch = p
			}
		}
		if famPatch == nil {
			t.Fatal("missing wrongec patch")
		}
		a, err := famPatch.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if res := infer.InferPatch(a); len(res.Specs) == 0 {
			t.Error("no specs inferred from wrongec patch")
		}
	})
	t.Run("RQ4_Detection", func(t *testing.T) {
		d := detect.New(r.Prog)
		if bugs := d.Detect(r.Specs); len(bugs) == 0 {
			t.Error("no reports")
		}
	})
	t.Run("Ablation_RegionScope", func(t *testing.T) {
		d := detect.New(r.Prog)
		d.GlobalRegions = true
		scoped := len(detect.New(r.Prog).Detect(r.Specs))
		global := len(d.Detect(r.Specs))
		if scoped == 0 || global == 0 {
			t.Errorf("ablation produced empty result set (scoped %d, global %d)", scoped, global)
		}
	})
	t.Run("Ablation_Memoization", func(t *testing.T) {
		memo := detect.New(r.Prog)
		noMemo := detect.New(r.Prog)
		noMemo.DisableMemo = true
		if a, b := len(memo.Detect(r.Specs)), len(noMemo.Detect(r.Specs)); a != b {
			t.Errorf("memoization changed report count: %d vs %d", a, b)
		}
	})
	t.Run("Ablation_PathSensitivity", func(t *testing.T) {
		blind := detect.New(r.Prog)
		blind.IgnoreConditions = true
		if n := len(blind.Detect(r.Specs)); n == 0 {
			t.Error("condition-blind detection found nothing")
		}
	})
	t.Run("Substrate_ParseDriver", func(t *testing.T) {
		if _, err := cir.ParseFile("bench.c", cir.Fig3Source); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("Substrate_PDGBuild", func(t *testing.T) {
		corpus := kernelgen.Generate(kernelgen.DefaultConfig())
		var files []*cir.File
		for _, name := range corpus.SortedFileNames() {
			f, err := cir.ParseFile(name, corpus.Files[name])
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		prog, err := ir.NewProgram(files...)
		if err != nil {
			t.Fatal(err)
		}
		if g := pdg.BuildAll(prog); g == nil {
			t.Fatal("nil PDG")
		}
	})
	t.Run("Substrate_InferParallel", func(t *testing.T) {
		corpus := kernelgen.Generate(kernelgen.DefaultConfig())
		res, err := InferSpecsContext(context.Background(), corpus.Patches, Options{Validate: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.DB.Specs) == 0 {
			t.Error("parallel inference produced no specs")
		}
	})
}
