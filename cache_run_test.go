package seal_test

// Library-level contract tests for the persistent analysis cache,
// focused on the rule the CLI tests cannot isolate: budget-degraded
// (truncated) results are NEVER written to the persistent cache, so a
// later full-budget run always recomputes instead of replaying a
// partial answer.

import (
	"context"
	"encoding/json"
	"testing"

	"seal"
	"seal/internal/kernelgen"
)

// openCache opens the persistent cache under dir with the given size bound
// (0 = unbounded), failing the test when it cannot.
func openCache(t *testing.T, dir string, maxBytes int64) *seal.Cache {
	t.Helper()
	c, err := seal.OpenCache(dir, false, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// degradedInfer runs inference under a step budget small enough to
// truncate at least one patch, on a view of pc.
func degradedInfer(t *testing.T, patches []*seal.Patch, pc *seal.Cache) *seal.InferenceResult {
	t.Helper()
	res, err := seal.InferSpecsContext(context.Background(), patches, seal.Options{
		Validate: true,
		Cache:    pc.View(),
		Limits:   seal.Limits{MaxSteps: 5},
	})
	if err != nil {
		t.Fatalf("degraded infer: %v", err)
	}
	return res
}

func TestInferDegradedNeverCached(t *testing.T) {
	patches := kernelgen.Generate(kernelgen.DefaultConfig()).Patches
	pc := openCache(t, t.TempDir(), 0)

	deg := degradedInfer(t, patches, pc)
	if len(deg.Degraded) == 0 {
		t.Fatal("MaxSteps=5 run degraded no patches; the truncation premise is gone")
	}
	// Every degraded or quarantined patch must have been refused by the
	// cache; only clean completions may be written.
	refused := int64(len(deg.Degraded) + len(deg.Failures))
	if deg.PCache.Uncacheable != refused {
		t.Errorf("uncacheable = %d, want %d (one per degraded/quarantined patch)",
			deg.PCache.Uncacheable, refused)
	}
	wantWrites := int64(len(patches)) - refused
	if deg.PCache.Writes != wantWrites {
		t.Errorf("writes = %d, want %d (clean patches only)", deg.PCache.Writes, wantWrites)
	}

	// A full-budget run over the same cache must recompute every patch
	// that was degraded (their truncated results were never stored).
	full, err := seal.InferSpecsContext(context.Background(), patches, seal.Options{
		Validate: true,
		Cache:    pc.View(),
	})
	if err != nil {
		t.Fatalf("full infer: %v", err)
	}
	if len(full.Degraded) != 0 || len(full.Failures) != 0 {
		t.Fatalf("full-budget run unexpectedly unhealthy: %d degraded, %d failed",
			len(full.Degraded), len(full.Failures))
	}
	// Degraded patches also miss under the full-budget key because the
	// config fingerprint only carries deterministic caps, which are equal
	// here — so misses must be at least the recomputed set.
	if full.PCache.Misses < refused {
		t.Errorf("full run misses = %d, want >= %d recomputes", full.PCache.Misses, refused)
	}

	// A third run is fully warm and must reproduce the full-budget DB
	// byte-for-byte.
	warm, err := seal.InferSpecsContext(context.Background(), patches, seal.Options{
		Validate: true,
		Cache:    pc.View(),
	})
	if err != nil {
		t.Fatalf("warm infer: %v", err)
	}
	// Every patch hits; the run-summary tier may contribute one more hit
	// when the preceding full-budget run was fully cold.
	if warm.PCache.Hits < int64(len(patches)) {
		t.Errorf("warm hits = %d, want >= %d", warm.PCache.Hits, len(patches))
	}
	if warm.PCache.Misses > 1 {
		t.Errorf("warm misses = %d, want at most the run-summary probe", warm.PCache.Misses)
	}
	a, err := json.Marshal(full.DB)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(warm.DB)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("warm spec DB differs from recomputed full-budget DB:\n%s\nvs\n%s", a, b)
	}
}

func TestDetectDegradedNeverCached(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	inferred, err := seal.InferSpecsContext(context.Background(), corpus.Patches, seal.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	specs := inferred.DB.Specs
	pc := openCache(t, t.TempDir(), 0)

	deg, _, err := seal.DetectFiles(context.Background(), corpus.Files, specs, seal.DetectRunOptions{
		Cache:  pc.View(),
		Limits: seal.Limits{MaxSteps: 5},
	})
	if err != nil {
		t.Fatalf("degraded detect: %v", err)
	}
	if len(deg.Degraded) == 0 {
		t.Fatal("MaxSteps=5 detect degraded no units; the truncation premise is gone")
	}
	if deg.PCache.Writes != 0 {
		t.Errorf("degraded detect wrote %d cache entries, want 0", deg.PCache.Writes)
	}
	if deg.PCache.Uncacheable == 0 {
		t.Error("degraded detect run was not counted as uncacheable")
	}

	// Full-budget run: must miss (nothing was stored) and then write.
	full, _, err := seal.DetectFiles(context.Background(), corpus.Files, specs, seal.DetectRunOptions{
		Cache: pc.View(),
	})
	if err != nil {
		t.Fatalf("full detect: %v", err)
	}
	if full.PCache.Hits != 0 {
		t.Errorf("full detect hit a cache the degraded run should not have populated: %+v", full.PCache)
	}
	if full.PCache.Writes == 0 {
		t.Error("clean full-budget detect wrote no cache entries")
	}

	// Warm replay must agree with the recomputed full-budget reports.
	warm, _, err := seal.DetectFiles(context.Background(), corpus.Files, specs, seal.DetectRunOptions{
		Cache: pc.View(),
	})
	if err != nil {
		t.Fatalf("warm detect: %v", err)
	}
	if warm.PCache.Hits == 0 {
		t.Errorf("warm detect missed: %+v", warm.PCache)
	}
	if len(warm.Recs) != len(full.Recs) {
		t.Fatalf("warm replayed %d bugs, full run found %d", len(warm.Recs), len(full.Recs))
	}
	for i := range warm.Recs {
		if warm.Recs[i].String() != full.Recs[i].String() {
			t.Errorf("bug %d differs:\nwarm: %s\nfull: %s", i, warm.Recs[i].String(), full.Recs[i].String())
		}
	}
}

// TestDetectEvictionNeverBreaksCorrectness runs the cached detection
// pipeline under a one-byte cache bound — every entry is evicted the
// moment it lands — and checks the eviction contract end to end: results
// stay byte-identical to an unbounded cached run, every round trip
// degrades to a clean miss-and-recompute, and nothing is ever served
// from a half-evicted state.
func TestDetectEvictionNeverBreaksCorrectness(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	inferred, err := seal.InferSpecsContext(context.Background(), corpus.Patches, seal.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	specs := inferred.DB.Specs

	ref, _, err := seal.DetectFiles(context.Background(), corpus.Files, specs, seal.DetectRunOptions{
		Cache: openCache(t, t.TempDir(), 0),
	})
	if err != nil {
		t.Fatalf("reference detect: %v", err)
	}

	pc := openCache(t, t.TempDir(), 1)
	for round := 0; round < 2; round++ {
		res, _, err := seal.DetectFiles(context.Background(), corpus.Files, specs, seal.DetectRunOptions{
			Cache: pc.View(),
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(res.Recs) != len(ref.Recs) {
			t.Fatalf("round %d: %d bugs, reference found %d", round, len(res.Recs), len(ref.Recs))
		}
		for i := range res.Recs {
			if res.Recs[i].String() != ref.Recs[i].String() {
				t.Errorf("round %d bug %d differs:\nevicting: %s\nreference: %s",
					round, i, res.Recs[i].String(), ref.Recs[i].String())
			}
		}
		if res.PCache.Evictions == 0 {
			t.Fatalf("round %d: 1-byte bound evicted nothing: %+v", round, res.PCache)
		}
		if res.PCache.Corrupt != 0 {
			t.Fatalf("round %d: eviction produced corrupt reads: %+v", round, res.PCache)
		}
		// Round 1 must re-miss (round 0's entries were evicted), never
		// replay a partial entry.
		if round == 1 && res.PCache.Hits != 0 {
			t.Fatalf("round 1 hit an entry that should have been evicted: %+v", res.PCache)
		}
	}
}
