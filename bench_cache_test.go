package seal

// Benchmarks for the persistent analysis cache and the parallel inference
// path, plus the standing warm-vs-cold speed assertion. The cache's value
// proposition is quantitative — a warm detection run must be at least 3×
// faster than a cold one — so the bar is enforced by a test, not just
// reported by a benchmark. Record results in BENCH_detect.json.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"seal/internal/kernelgen"
	"seal/internal/solver"
)

// BenchmarkInferScaling measures stage ①–③ inference over the default
// corpus at 1/2/4 workers through the public budgeted entry point, with
// the solver's formula-level memo hit rate reported (the in-process
// memoization tier of the caching design). The warm-workers-N runs replay
// every patch from a cache directory filled by one untimed run.
func BenchmarkInferScaling(b *testing.B) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	for _, warm := range []bool{false, true} {
		var baseline float64
		for _, w := range []int{1, 2, 4} {
			name := fmt.Sprintf("workers-%d", w)
			if warm {
				name = "warm-" + name
			}
			b.Run(name, func(b *testing.B) {
				opts := Options{Validate: true, Workers: w}
				if warm {
					opts.Cache = openTestCache(b, b.TempDir())
					if _, err := InferSpecsContext(context.Background(), corpus.Patches, opts); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
				}
				var sat solver.Tally
				start := time.Now()
				for i := 0; i < b.N; i++ {
					res, err := InferSpecsContext(context.Background(), corpus.Patches, opts)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.DB.Specs) == 0 {
						b.Fatal("no specs")
					}
					sat.Add(res.Solver)
				}
				elapsed := float64(time.Since(start).Nanoseconds()) / float64(b.N)
				if w == 1 {
					baseline = elapsed
				}
				if baseline > 0 {
					b.ReportMetric(baseline/elapsed, "speedup-x")
				}
				if dh, dm := sat.MemoHits, sat.MemoMisses; dh+dm > 0 {
					b.ReportMetric(float64(dh)/float64(dh+dm)*100, "sat-memo-hit-%")
				}
			})
		}
	}
}

// benchDetectCorpus builds the detection inputs once: the eval corpus's
// source tree and validated specification database.
func benchDetectCorpus(tb testing.TB) (map[string]string, []*Spec) {
	tb.Helper()
	r := getBenchRun(tb)
	return r.Corpus.Files, r.Specs
}

// BenchmarkColdDetect measures a full cached detection run against an
// empty cache: fingerprint, miss, parse, build, detect, write-back.
func BenchmarkColdDetect(b *testing.B) {
	files, specs := benchDetectCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		res, _, err := DetectFiles(context.Background(), files, specs,
			DetectRunOptions{Cache: openTestCache(b, dir)})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Recs) == 0 {
			b.Fatal("no reports")
		}
		if res.PCache.Hits != 0 {
			b.Fatal("cold run hit the cache")
		}
	}
}

// BenchmarkWarmDetect measures the same run served entirely from a
// populated cache: fingerprint, read, decode, replay — no parsing, no
// PDG, no solving.
func BenchmarkWarmDetect(b *testing.B) {
	files, specs := benchDetectCorpus(b)
	pc := openTestCache(b, b.TempDir())
	if _, _, err := DetectFiles(context.Background(), files, specs,
		DetectRunOptions{Cache: pc}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := DetectFiles(context.Background(), files, specs,
			DetectRunOptions{Cache: pc.View()})
		if err != nil {
			b.Fatal(err)
		}
		if res.PCache.Hits == 0 {
			b.Fatal("warm run missed")
		}
		if len(res.Recs) == 0 {
			b.Fatal("no reports")
		}
	}
}

// medianRunNs times fn over runs executions and returns the median, a
// noise-resistant point estimate for the speedup assertion below.
func medianRunNs(tb testing.TB, runs int, fn func()) float64 {
	tb.Helper()
	samples := make([]float64, runs)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = float64(time.Since(start).Nanoseconds())
	}
	sort.Float64s(samples)
	return samples[len(samples)/2]
}

// TestWarmDetectSpeedup enforces the cache's acceptance bar: the median
// warm detection run must be at least 3× faster than the median cold run
// over the eval corpus. Results are byte-identity-checked elsewhere
// (difftest, CLI goldens); this test is purely about the speed claim.
func TestWarmDetectSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	files, specs := benchDetectCorpus(t)
	ctx := context.Background()

	warm := openTestCache(t, t.TempDir())
	if _, _, err := DetectFiles(ctx, files, specs, DetectRunOptions{Cache: warm}); err != nil {
		t.Fatal(err)
	}

	const runs = 5
	cold := medianRunNs(t, runs, func() {
		res, _, err := DetectFiles(ctx, files, specs, DetectRunOptions{Cache: openTestCache(t, t.TempDir())})
		if err != nil {
			t.Fatal(err)
		}
		if res.PCache.Hits != 0 {
			t.Fatal("cold run hit the cache")
		}
	})
	warmNs := medianRunNs(t, runs, func() {
		res, _, err := DetectFiles(ctx, files, specs, DetectRunOptions{Cache: warm.View()})
		if err != nil {
			t.Fatal(err)
		}
		if res.PCache.Hits == 0 {
			t.Fatal("warm run missed")
		}
	})

	speedup := cold / warmNs
	t.Logf("cold median %.2fms, warm median %.2fms, speedup %.1fx",
		cold/1e6, warmNs/1e6, speedup)
	if speedup < 3 {
		t.Errorf("warm detect is only %.2fx faster than cold, want >= 3x", speedup)
	}
}
