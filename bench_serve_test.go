package seal

// Benchmarks for the resident substrate behind `seal serve`, plus the
// standing residency speed assertion: a repeated detect request against a
// resident substrate (the daemon's steady state) must be at least 5×
// faster than a cold batch detection over the same corpus. Record results
// in BENCH_detect.json.

import (
	"context"
	"testing"
)

// BenchmarkColdBatchDetect measures the daemon's first-request cost: a
// full uncached batch detection — parse, link, index, PDG, solve.
func BenchmarkColdBatchDetect(b *testing.B) {
	files, specs := benchDetectCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := DetectFiles(context.Background(), files, specs, DetectRunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Recs) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkResidentDetect measures the daemon's steady state: repeated
// detect requests against one resident substrate, answered from the
// group memo.
func BenchmarkResidentDetect(b *testing.B) {
	files, specs := benchDetectCorpus(b)
	r, err := NewResidentFiles(files)
	if err != nil {
		b.Fatal(err)
	}
	plan := PlanGroups(specs)
	if _, _, err := r.Detect(context.Background(), plan, DetectRunOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := r.Detect(context.Background(), plan, DetectRunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Recs) == 0 {
			b.Fatal("no reports")
		}
	}
}

// TestResidentDetectSpeedup enforces the serving acceptance bar: the
// median resident detect request must be at least 5× faster than the
// median cold batch detection over the eval corpus. Byte-identity of the
// two paths is enforced elsewhere (difftest RunServeCase, the serve-smoke
// CI gate); this test is purely about the residency speed claim.
func TestResidentDetectSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	files, specs := benchDetectCorpus(t)
	ctx := context.Background()

	r, err := NewResidentFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanGroups(specs)
	if _, _, err := r.Detect(ctx, plan, DetectRunOptions{}); err != nil {
		t.Fatal(err)
	}

	const runs = 5
	cold := medianRunNs(t, runs, func() {
		res, _, err := DetectFiles(ctx, files, specs, DetectRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recs) == 0 {
			t.Fatal("no reports")
		}
	})
	resident := medianRunNs(t, runs, func() {
		res, _, err := r.Detect(ctx, plan, DetectRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recs) == 0 {
			t.Fatal("no reports")
		}
	})

	speedup := cold / resident
	t.Logf("cold batch median %.2fms, resident median %.2fms, speedup %.1fx",
		cold/1e6, resident/1e6, speedup)
	if speedup < 5 {
		t.Errorf("resident detect is only %.2fx faster than cold batch, want >= 5x", speedup)
	}
}
