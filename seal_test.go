package seal

import (
	"context"
	"testing"

	"seal/internal/detect"
	"seal/internal/kernelgen"
)

// TestEndToEndDefaultCorpus runs the complete pipeline — generate corpus,
// infer specs from its patches, detect bugs in the tree — and checks the
// headline behaviour: most seeded bugs found, reasonable precision.
func TestEndToEndDefaultCorpus(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())

	res, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DB.Specs) == 0 {
		t.Fatal("no specs inferred from corpus patches")
	}
	if res.ZeroRelationPatches < kernelgen.DefaultConfig().NoisePatches {
		t.Errorf("zero-relation patches = %d, want at least the %d noise patches",
			res.ZeroRelationPatches, kernelgen.DefaultConfig().NoisePatches)
	}

	target, err := LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	bugs := Detect(target, res.DB.Specs)
	if len(bugs) == 0 {
		t.Fatal("no bugs detected")
	}

	gt := corpus.BugByFunc()
	drv := corpus.DriverByFunc()
	foundFuncs := make(map[string]bool)
	tp, fp := 0, 0
	for _, b := range bugs {
		if _, ok := gt[b.Fn.Name]; ok {
			tp++
			foundFuncs[b.Fn.Name] = true
		} else {
			fp++
			// FPs should come from confuser drivers, not plain correct
			// ones... but incorrect specs may hit correct drivers too —
			// just log for inspection.
			t.Logf("FP: %s (variant %v)", b, drv[b.Fn.Name].Variant)
		}
	}
	recallByFamily := make(map[string][2]int)
	for fn, b := range gt {
		e := recallByFamily[b.Family]
		e[1]++
		if foundFuncs[fn] {
			e[0]++
		}
		recallByFamily[b.Family] = e
	}
	for fam, e := range recallByFamily {
		t.Logf("family %-8s recall %d/%d", fam, e[0], e[1])
		if e[0] == 0 {
			t.Errorf("family %s: no seeded bug found (%d seeded)", fam, e[1])
		}
	}
	prec := float64(tp) / float64(tp+fp)
	t.Logf("reports=%d tp=%d fp=%d precision=%.3f foundBugs=%d/%d",
		len(bugs), tp, fp, prec, len(foundFuncs), len(gt))
	if prec < 0.5 {
		t.Errorf("precision %.2f too low", prec)
	}
	if len(foundFuncs) < len(gt)*2/3 {
		t.Errorf("found %d of %d seeded bugs", len(foundFuncs), len(gt))
	}
}

func TestDetectParallelMatchesSequential(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	res, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	seq := Detect(target, res.DB.Specs)
	for _, workers := range []int{2, 4, 8} {
		par, _, err := DetectFiles(context.Background(), corpus.Files, res.DB.Specs, DetectRunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par.Recs) != len(seq) {
			t.Fatalf("workers=%d: %d reports vs %d sequential", workers, len(par.Recs), len(seq))
		}
		for i := range seq {
			if want := detect.Record(seq[i]); par.Recs[i] != want {
				t.Fatalf("workers=%d: report %d differs: %+v vs %+v", workers, i, par.Recs[i], want)
			}
		}
	}
}

func TestMergeSpecDBs(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	res, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	half := len(res.DB.Specs) / 2
	a := &SpecDB{Specs: res.DB.Specs[:half]}
	b := &SpecDB{Specs: res.DB.Specs[half:]}
	merged := MergeSpecDBs(a, b)
	if len(merged.Specs) != len(res.DB.Specs) {
		t.Fatalf("merged %d, want %d", len(merged.Specs), len(res.DB.Specs))
	}
	// Merging with overlap deduplicates.
	again := MergeSpecDBs(merged, a, nil)
	if len(again.Specs) != len(merged.Specs) {
		t.Fatalf("overlap merge grew: %d vs %d", len(again.Specs), len(merged.Specs))
	}
}

func TestCorpusDiskRoundTrip(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	dir := t.TempDir()
	if err := corpus.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	// Reload patches from disk and re-infer: identical spec set.
	patches, err := kernelgen.LoadPatches(dir + "/patches")
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) != len(corpus.Patches) {
		t.Fatalf("loaded %d patches, want %d", len(patches), len(corpus.Patches))
	}
	resMem, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resDisk, err := InferSpecs(patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(resMem.DB.Specs) != len(resDisk.DB.Specs) {
		t.Fatalf("disk round trip changed inference: %d vs %d specs",
			len(resDisk.DB.Specs), len(resMem.DB.Specs))
	}
	// Reload the tree and detect: identical reports.
	target, err := LoadDir(dir + "/tree")
	if err != nil {
		t.Fatal(err)
	}
	memTarget, err := LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	diskBugs := Detect(target, resDisk.DB.Specs)
	memBugs := Detect(memTarget, resMem.DB.Specs)
	if len(diskBugs) != len(memBugs) {
		t.Fatalf("disk round trip changed detection: %d vs %d", len(diskBugs), len(memBugs))
	}
}

func TestInferSpecsParallelMatchesSequential(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	seq, err := InferSpecs(corpus.Patches, Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := InferSpecsContext(context.Background(), corpus.Patches, Options{Validate: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Failures) != 0 {
		t.Fatalf("parallel inference quarantined patches: %v", par.Failures)
	}
	if len(seq.DB.Specs) != len(par.DB.Specs) {
		t.Fatalf("parallel inference diverges: %d vs %d specs", len(seq.DB.Specs), len(par.DB.Specs))
	}
	for i := range seq.DB.Specs {
		if seq.DB.Specs[i].Key() != par.DB.Specs[i].Key() {
			t.Errorf("spec %d differs: %s vs %s", i, seq.DB.Specs[i].Key(), par.DB.Specs[i].Key())
		}
	}
}
