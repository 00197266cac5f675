package coord_test

// Benchmarks and the standing perf assertions for the scale-out tier.
// Record results in BENCH_detect.json.
//
// Two claims are measured here:
//   - parallel speedup: with >= 4 real cores, a 4-worker coordinated
//     detection of a cold corpus must beat the 1-worker coordinated run by
//     at least 1.6x (gated on runtime.NumCPU so a 1-core CI box records
//     honest numbers instead of asserting fiction);
//   - coordination overhead: a 1-shard coordinated run (spawn substrate +
//     HTTP dispatch + JSON + merge) must cost at most 25% over the plain
//     in-process pipeline on the same corpus.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"seal"
	"seal/internal/budget"
	"seal/internal/coord"
	"seal/internal/difftest"
	"seal/internal/kernelgen"
	"seal/internal/spec"
)

var (
	benchOnce  sync.Once
	benchFiles map[string]string
	benchSpecs []*spec.Spec
	benchErr   error
)

// benchCorpus builds the sharding benchmark inputs once: the generated
// kernel-style corpus and its validated spec database — several region
// groups, so every shard count in play gets real work.
func benchCorpus(tb testing.TB) (map[string]string, []*spec.Spec) {
	tb.Helper()
	benchOnce.Do(func() {
		corpus := kernelgen.Generate(kernelgen.DefaultConfig())
		res, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
		if err != nil {
			benchErr = err
			return
		}
		benchFiles = corpus.Files
		benchSpecs = res.DB.Specs
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchFiles, benchSpecs
}

// coordDetectOnce runs one coordinated detection against fresh workers,
// returning just the dispatch+detect+merge wall time (worker startup —
// parse, link, index — is excluded; it is the same work at every shard
// count and is measured separately by the overhead benchmark).
func coordDetectOnce(tb testing.TB, shards int) time.Duration {
	return coordDetectOnceOpts(tb, shards, false)
}

// coordDetectOnceOpts is coordDetectOnce with the fleet-resilience layer
// optionally switched on (liveness probing, retry policy,
// re-shard-on-loss) — the no-fault steady-state configuration
// whose overhead TestResilienceOverhead bounds.
func coordDetectOnceOpts(tb testing.TB, shards int, resilient bool) time.Duration {
	tb.Helper()
	files, specs := benchCorpus(tb)
	addrs, _, stop, err := difftest.StartWorkers(shards, files)
	if err != nil {
		tb.Fatal(err)
	}
	defer stop()
	opts := coord.Options{
		Addrs:   addrs,
		Timeout: 2 * time.Minute,
		Workers: 1,
		Limits:  budget.Limits{},
	}
	if resilient {
		opts.Retry = coord.RetryPolicy{MaxAttempts: 3, Backoff: 50 * time.Millisecond}
		opts.Probe = coord.ProbeOptions{Interval: 50 * time.Millisecond}
		opts.ReshardOnLoss = true
	}
	start := time.Now()
	res, _, err := coord.Detect(context.Background(), seal.TargetHash(files), specs, opts)
	el := time.Since(start)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Recs) == 0 {
		tb.Fatal("no reports")
	}
	return el
}

// BenchmarkShardedDetect measures a cold coordinated detection at several
// shard counts. Workers are rebuilt every iteration so each measurement is
// a genuine cold run, not a resident-memo replay.
func BenchmarkShardedDetect(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "shards-1", 2: "shards-2", 4: "shards-4"}[shards], func(b *testing.B) {
			benchCorpus(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Fresh workers: cold substrate, cold memo.
				files, _ := benchCorpus(b)
				addrs, _, stop, err := difftest.StartWorkers(shards, files)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, specs := benchCorpus(b)
				res, _, err := coord.Detect(context.Background(), seal.TargetHash(files), specs, coord.Options{
					Addrs: addrs, Timeout: 2 * time.Minute, Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Recs) == 0 {
					b.Fatal("no reports")
				}
				b.StopTimer()
				stop()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkInProcessDetect is the coordination-overhead baseline: the same
// corpus through the plain single-process pipeline.
func BenchmarkInProcessDetect(b *testing.B) {
	files, specs := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := seal.DetectFiles(context.Background(), files, specs, seal.DetectRunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Recs) == 0 {
			b.Fatal("no reports")
		}
	}
}

func medianCoordNs(tb testing.TB, runs, shards int) float64 {
	samples := make([]float64, runs)
	for i := range samples {
		samples[i] = float64(coordDetectOnce(tb, shards).Nanoseconds())
	}
	sort.Float64s(samples)
	return samples[runs/2]
}

// TestShardedDetectSpeedup enforces the scale-out acceptance bar on
// machines that can express it: with at least 4 real cores, 4 workers must
// finish the cold corpus at least 1.6x faster than 1 worker. On smaller
// machines the claim is untestable (workers time-slice one core), so the
// test records the measured ratio and skips the assertion.
func TestShardedDetectSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	const runs = 5
	one := medianCoordNs(t, runs, 1)
	four := medianCoordNs(t, runs, 4)
	speedup := one / four
	t.Logf("1 worker median %.2fms, 4 workers median %.2fms, speedup %.2fx (cores=%d)",
		one/1e6, four/1e6, speedup, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d cores: 4-worker speedup is not measurable, skipping the 1.6x floor", runtime.NumCPU())
	}
	if speedup < 1.6 {
		t.Errorf("4-worker coordinated detect is only %.2fx faster than 1-worker, want >= 1.6x", speedup)
	}
}

// TestCoordinationOverhead bounds what the scale-out machinery itself
// costs in steady state: a 1-shard coordinated detection (HTTP dispatch,
// JSON round trip, deterministic merge — everything coordination adds per
// run) must stay within 25% of the plain in-process pipeline on the same
// corpus. Worker substrate startup is excluded: workers are resident
// daemons spawned once per session, so that cost amortizes to zero over a
// corpus sweep — the per-run wire tax is what must stay small.
func TestCoordinationOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short mode")
	}
	files, specs := benchCorpus(t)
	ctx := context.Background()
	inproc := func() time.Duration {
		start := time.Now()
		res, _, err := seal.DetectFiles(ctx, files, specs, seal.DetectRunOptions{})
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recs) == 0 {
			t.Fatal("no reports")
		}
		return el
	}
	// One warmup per side: first-touch costs (solver memo, page cache)
	// land outside the measurement.
	inproc()
	coordDetectOnce(t, 1)

	// The two sides strictly alternate, so each run follows a run of the
	// other side and both inherit alike what the one before left behind
	// (a coordinated run's worker start-up garbage, the solver memo). Each
	// in-process run pairs with the coordinated run right after it, and
	// the gate is the median of the per-pair ratios: load from other
	// processes (a parallel `go test ./...`) that lands on a few pairs
	// moves their ratios, not the median.
	const pairs = 61
	ratios := make([]float64, pairs)
	for i := range ratios {
		in := inproc()
		ratios[i] = float64(coordDetectOnce(t, 1)) / float64(in)
	}
	sort.Float64s(ratios)
	ratio := ratios[pairs/2]
	t.Logf("median 1-shard/in-process ratio over %d pairs %.3fx (quartiles %.3fx–%.3fx)",
		pairs, ratio, ratios[pairs/4], ratios[3*pairs/4])
	if ratio > 1.25 {
		t.Errorf("coordination overhead is %.2fx, want <= 1.25x", ratio)
	}
}

// TestResilienceOverhead bounds the steady-state cost of the resilience
// layer itself: with no faults, a coordinated run with liveness probing,
// retry policy, and re-shard-on-loss all enabled must stay within 5% of
// the same run with them off. The prober is one GET per interval on an
// otherwise idle goroutine — insurance must be cheap when nothing burns.
func TestResilienceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement skipped in -short mode")
	}
	// One warmup per side.
	coordDetectOnceOpts(t, 1, false)
	coordDetectOnceOpts(t, 1, true)

	// Samples come in interleaved pairs, one plain and one resilient, each
	// side of a pair three runs that alternate with the other side's,
	// starting with a different side at every run, so both warm alike and
	// neither always follows the other. The gate is the median of the
	// per-pair ratios: the systematic per-run tax (the prober goroutine
	// and its GETs) is in every pair, while box noise — another process,
	// a GC, which on a ~13ms corpus dwarfs the tax — lands on a few pairs
	// and moves their ratios, not the median.
	const pairs, perSample = 101, 3
	ratios := make([]float64, pairs)
	for i := range ratios {
		var plain, resilient time.Duration
		for j := 0; j < perSample; j++ {
			if (i+j)%2 == 0 {
				plain += coordDetectOnceOpts(t, 1, false)
				resilient += coordDetectOnceOpts(t, 1, true)
			} else {
				resilient += coordDetectOnceOpts(t, 1, true)
				plain += coordDetectOnceOpts(t, 1, false)
			}
		}
		ratios[i] = float64(resilient) / float64(plain)
	}
	sort.Float64s(ratios)
	ratio := ratios[pairs/2]
	t.Logf("median resilient/plain ratio over %d pairs %.3fx (quartiles %.3fx–%.3fx)",
		pairs, ratio, ratios[pairs/4], ratios[3*pairs/4])
	if ratio > 1.05 {
		t.Errorf("resilience steady-state overhead is %.2fx, want <= 1.05x", ratio)
	}
}
