package seal

import (
	"context"
	"runtime"
	"testing"
)

// Allocation ceilings of one cold detection over the BenchmarkColdDetect
// corpus with one worker and no cache: the figures measured when the
// analysis stopped building transient sets, maps and strings per query
// (pooled token buffers, stack cell lists, reused walk marks, one path
// copy per sink, byte-level shape and signature keys), plus 10%. A change
// that brings the garbage back fails here under its own name.
const (
	coldDetectAllocsCeiling = 137_900   // 125,333 measured, +10%
	coldDetectBytesCeiling  = 8_910_000 // 8,097,435 B measured, +10%
)

// TestColdDetectAllocCeiling holds a cold detection's allocation count and
// volume under the ceilings above.
func TestColdDetectAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation figures")
	}
	files, specs := benchDetectCorpus(t)
	run := func() {
		res, _, err := DetectFiles(context.Background(), files, specs, DetectRunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recs) == 0 {
			t.Fatal("no reports")
		}
	}
	const runs = 5
	allocs := testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("cold detect: %.0f allocs/run (ceiling %d), %.0f B/run (ceiling %d)",
		allocs, coldDetectAllocsCeiling, bytes, coldDetectBytesCeiling)
	if allocs > coldDetectAllocsCeiling {
		t.Errorf("cold detect made %.0f allocations per run, ceiling %d", allocs, coldDetectAllocsCeiling)
	}
	if bytes > coldDetectBytesCeiling {
		t.Errorf("cold detect allocated %.0f bytes per run, ceiling %d", bytes, coldDetectBytesCeiling)
	}
}
