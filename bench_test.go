package seal

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (§8), per the DESIGN.md experiment index, plus
// the ablation benches for the design choices the paper calls out and
// substrate microbenchmarks. Run with:
//
//	go test -bench=. -benchmem
//
// Each bench reports paper-shape metrics via b.ReportMetric so the bench
// log doubles as the experiment record (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"seal/internal/cir"
	"seal/internal/detect"
	"seal/internal/eval"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/patch"
	"seal/internal/pdg"
	"seal/internal/vfp"
)

var (
	benchOnce sync.Once
	benchRun  *eval.Run
	benchErr  error
)

func getBenchRun(tb testing.TB) *eval.Run {
	tb.Helper()
	benchOnce.Do(func() {
		benchRun, benchErr = eval.NewRun(kernelgen.EvalConfig())
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchRun
}

// BenchmarkRQ1_Precision runs the complete pipeline (corpus generation,
// inference, detection) and reports the headline precision/recall.
func BenchmarkRQ1_Precision(b *testing.B) {
	var last *eval.Run
	for i := 0; i < b.N; i++ {
		r, err := eval.NewRun(kernelgen.EvalConfig())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	q := last.HeadlineRQ1()
	b.ReportMetric(q.Precision*100, "precision-%")
	b.ReportMetric(q.Recall*100, "recall-%")
	b.ReportMetric(float64(q.Reports), "reports")
}

// BenchmarkTable1_BugSamples regenerates the found-bug sample table.
func BenchmarkTable1_BugSamples(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(r.Table1(45))
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkTable2_BugTypes regenerates the bug-type distribution.
func BenchmarkTable2_BugTypes(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var kinds int
	for i := 0; i < b.N; i++ {
		kinds = len(r.Table2())
	}
	b.ReportMetric(float64(kinds), "bug-types")
}

// BenchmarkFig8a_LatentYears regenerates the latent-age distribution.
func BenchmarkFig8a_LatentYears(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var f eval.Fig8a
	for i := 0; i < b.N; i++ {
		f = r.LatentYears()
	}
	b.ReportMetric(f.Mean, "mean-years")
	b.ReportMetric(f.Over10*100, "over10-%")
}

// BenchmarkFig8b_ViolationsPerSpec regenerates the per-spec violation
// distribution.
func BenchmarkFig8b_ViolationsPerSpec(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var f eval.Fig8b
	for i := 0; i < b.N; i++ {
		f = r.ViolationsPerSpec()
	}
	b.ReportMetric(f.Over5*100, "over5-%")
}

// BenchmarkFig10_ToolCoverage runs both baselines and reports the
// supported-bug-type counts of the coverage matrix.
func BenchmarkFig10_ToolCoverage(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var res *eval.BaselineResults
	for i := 0; i < b.N; i++ {
		res = r.RunBaselines()
	}
	b.ReportMetric(float64(len(res.SEALFoundKinds)), "seal-kinds")
	b.ReportMetric(float64(len(res.APHPFoundKinds)), "aphp-kinds")
	b.ReportMetric(float64(len(res.CRIXFoundKinds)), "crix-kinds")
}

// BenchmarkRQ2_SpecStats regenerates the relation-origin statistics.
func BenchmarkRQ2_SpecStats(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var q eval.RQ2
	for i := 0; i < b.N; i++ {
		q = r.SpecCharacteristics()
	}
	b.ReportMetric(float64(q.PPlus), "P+")
	b.ReportMetric(float64(q.PMinus), "P-")
	b.ReportMetric(float64(q.PPsi), "PΨ")
	b.ReportMetric(float64(q.POmega), "PΩ")
	b.ReportMetric(q.SpecPrecision*100, "spec-precision-%")
}

// BenchmarkRQ3_APHP runs the APHP baseline end to end.
func BenchmarkRQ3_APHP(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var res *eval.BaselineResults
	for i := 0; i < b.N; i++ {
		res = r.RunBaselines()
	}
	b.ReportMetric(float64(len(res.APHPReports)), "reports")
	b.ReportMetric(res.APHPPrecision()*100, "precision-%")
}

// BenchmarkRQ3_CRIX runs the CRIX baseline end to end.
func BenchmarkRQ3_CRIX(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	var res *eval.BaselineResults
	for i := 0; i < b.N; i++ {
		res = r.RunBaselines()
	}
	b.ReportMetric(float64(len(res.CRIXReports)), "reports")
	b.ReportMetric(res.CRIXPrecision()*100, "precision-%")
}

// BenchmarkRQ4_InferencePerPatch times stages ①–③ on a single security
// patch (the paper's 8.78 s/patch analogue).
func BenchmarkRQ4_InferencePerPatch(b *testing.B) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	var famPatch *patch.Patch
	for _, p := range corpus.Patches {
		if p.Tags["family"] == "wrongec" {
			famPatch = p
		}
	}
	if famPatch == nil {
		b.Fatal("missing wrongec patch")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := famPatch.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		res := infer.InferPatch(a)
		if len(res.Specs) == 0 {
			b.Fatal("no specs")
		}
	}
}

// BenchmarkRQ4_Detection times stage ④ over the full corpus with the
// already-inferred specification database.
func BenchmarkRQ4_Detection(b *testing.B) {
	r := getBenchRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := detect.New(r.Prog)
		bugs := d.Detect(r.Specs)
		if len(bugs) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkDetectScaling measures stage-④ detection over the eval corpus
// at 1/2/4/8 workers sharing one analysis substrate per iteration: one
// PDG, one program index, one path cache. It reports wall-clock speedup
// relative to the 1-worker run plus the substrate counters (how many PDGs
// were built and the path-cache hit rate), which is what distinguishes
// "cost scales with the program" from "cost scales with workers × specs".
// The final private-substrates-4 case replays the pre-substrate scheme —
// four workers each building a private PDG over round-robin-partitioned
// specs — and reports its cost relative to the shared 4-worker run; that
// ratio holds even on a single-core host, where it is pure work reduction.
func BenchmarkDetectScaling(b *testing.B) {
	r := getBenchRun(b)
	var baseline, shared4 float64 // ns/op at workers=1 and workers=4
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			var st detect.Stats
			start := time.Now()
			for i := 0; i < b.N; i++ {
				rs := NewResident(&Target{Prog: r.Prog})
				res, _, err := rs.Detect(context.Background(), PlanGroups(r.Specs), DetectRunOptions{Workers: w})
				if err != nil || len(res.Recs) == 0 {
					b.Fatalf("no reports (%v)", err)
				}
				st = rs.Stats()
			}
			elapsed := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			switch w {
			case 1:
				baseline = elapsed
			case 4:
				shared4 = elapsed
			}
			if baseline > 0 {
				b.ReportMetric(baseline/elapsed, "speedup-x")
			}
			b.ReportMetric(st.PathHitRate()*100, "path-cache-hit-%")
			b.ReportMetric(float64(st.EnsureBuilds), "pdg-builds")
			b.ReportMetric(float64(st.IndexLookups), "index-lookups")
		})
	}
	b.Run("private-substrates-4", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					d := detect.New(r.Prog)
					for si := w; si < len(r.Specs); si += 4 {
						d.DetectSpec(r.Specs[si])
					}
				}(w)
			}
			wg.Wait()
		}
		elapsed := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		if shared4 > 0 {
			b.ReportMetric(elapsed/shared4, "cost-vs-shared-x")
		}
	})
}

// BenchmarkPathSignature measures Path.Signature on a realistic path set.
// The normalized statement spelling is memoized per statement and the
// signature per path, so steady-state calls must be allocation-free —
// verify with -benchmem.
func BenchmarkPathSignature(b *testing.B) {
	r := getBenchRun(b)
	g := pdg.New(r.Prog)
	sl := vfp.NewSlicer(g)
	var paths []*vfp.Path
	for _, fn := range r.Prog.FuncList {
		for _, s := range fn.Entry.Stmts {
			if s.IsParamDef() {
				paths = append(paths, sl.PathsFrom(s)...)
			}
		}
		if len(paths) >= 256 {
			break
		}
	}
	if len(paths) == 0 {
		b.Fatal("no paths")
	}
	b.ReportMetric(float64(len(paths)), "paths")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			if p.Signature() == "" {
				b.Fatal("empty signature")
			}
		}
	}
}

// BenchmarkAblation_RegionScope compares interface-scoped detection
// against global regions (paper §5 Remark: scoping preserves precision
// and scalability).
func BenchmarkAblation_RegionScope(b *testing.B) {
	r := getBenchRun(b)
	b.Run("scoped", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			n = len(d.Detect(r.Specs))
		}
		b.ReportMetric(float64(n), "reports")
	})
	b.Run("global", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			d.GlobalRegions = true
			n = len(d.Detect(r.Specs))
		}
		b.ReportMetric(float64(n), "reports")
	})
}

// BenchmarkAblation_Memoization compares detection with and without the
// path-summary cache (paper §6.4.1).
func BenchmarkAblation_Memoization(b *testing.B) {
	r := getBenchRun(b)
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			d.Detect(r.Specs)
		}
	})
	b.Run("no-memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			d.DisableMemo = true
			d.Detect(r.Specs)
		}
	})
}

// BenchmarkAblation_PathSensitivity compares condition-checked detection
// against condition-blind detection (quasi-path-sensitivity off).
func BenchmarkAblation_PathSensitivity(b *testing.B) {
	r := getBenchRun(b)
	b.Run("path-sensitive", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			n = len(d.Detect(r.Specs))
		}
		b.ReportMetric(float64(n), "reports")
	})
	b.Run("path-insensitive", func(b *testing.B) {
		var n int
		for i := 0; i < b.N; i++ {
			d := detect.New(r.Prog)
			d.IgnoreConditions = true
			n = len(d.Detect(r.Specs))
		}
		b.ReportMetric(float64(n), "reports")
	})
}

// --- Substrate microbenchmarks -------------------------------------------

// BenchmarkSubstrate_ParseDriver measures the kernel-C frontend.
func BenchmarkSubstrate_ParseDriver(b *testing.B) {
	src := cir.Fig3Source
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := cir.ParseFile("bench.c", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstrate_PDGBuild measures whole-program PDG construction for
// the default corpus.
func BenchmarkSubstrate_PDGBuild(b *testing.B) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	var files []*cir.File
	for _, name := range corpus.SortedFileNames() {
		f, err := cir.ParseFile(name, corpus.Files[name])
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := ir.NewProgram(files...)
		if err != nil {
			b.Fatal(err)
		}
		pdg.BuildAll(prog)
	}
}

// BenchmarkSubstrate_InferParallel measures the parallel patch-processing
// path of the public API.
func BenchmarkSubstrate_InferParallel(b *testing.B) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InferSpecsContext(context.Background(), corpus.Patches, Options{Validate: true, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
