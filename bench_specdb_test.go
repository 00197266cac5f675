package seal

// Benchmark and standing speed assertion for the spec store's
// incremental-recompute path. The store's value proposition is that a
// one-spec edit re-detects only the region group owning the edited spec
// while every sibling group replays from the persistent cache — so the
// bar is quantitative: the median edit-recompute run must be at least 3×
// faster than a full cold detection. Record results in BENCH_detect.json.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"seal/internal/spec"
	"seal/internal/specdb"
)

// TestSpecEditRecomputeSpeedup enforces the spec store's acceptance bar:
// editing one spec in place and re-detecting on a resident substrate (the
// serve daemon's /specs flow — live IR, group memo warm) must be at least
// 3× faster than a full cold detection over the eval corpus, because only
// the region group owning the edited spec computes. Byte-identity of the
// recomputed output is pinned elsewhere (difftest RunSpecEditCase and the
// serve/CLI tests); this test is purely about the speed claim.
func TestSpecEditRecomputeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	files, specs := benchDetectCorpus(t)
	ctx := context.Background()

	storePath := filepath.Join(t.TempDir(), "specs.specdb")
	if _, _, err := ImportSpecStore(storePath, &SpecDB{Specs: specs}); err != nil {
		t.Fatal(err)
	}
	stored, err := LoadSpecStoreSpecs(storePath)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 5
	cold := medianRunNs(t, runs, func() {
		res, gs, err := DetectFiles(ctx, files, stored, DetectRunOptions{CacheDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if res.PCache.Hits != 0 || gs.Warm != 0 {
			t.Fatal("cold run hit the cache")
		}
	})

	// Build the resident substrate once and warm its group memo — the
	// daemon's steady state — then measure successive one-spec edits.
	// Each edit rewrites the same key with fresh content, so exactly one
	// group fingerprint changes per run.
	target, err := LoadFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResident(target)
	if _, _, err := r.Detect(ctx, stored, DetectRunOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := specdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := *stored[0]
	edition := 0
	var cur []*spec.Spec
	edit := func() {
		edition++
		edited := base
		edited.OriginPatch = fmt.Sprintf("%s-edit%d", base.OriginPatch, edition)
		created, err := st.UpsertSpec(&edited)
		if err != nil {
			t.Fatal(err)
		}
		if created {
			t.Fatal("edit created a new key instead of replacing")
		}
		cur, err = st.Current().Specs()
		if err != nil {
			t.Fatal(err)
		}
	}
	warm := medianRunNs(t, runs, func() {
		edit()
		res, gs, err := r.Detect(ctx, cur, DetectRunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if gs.Computed != 1 || gs.Warm != gs.Groups-1 {
			t.Fatalf("edit run not incremental: %+v", gs)
		}
		if len(res.Recs) == 0 {
			t.Fatal("edit run produced no reports")
		}
	})

	speedup := cold / warm
	t.Logf("full cold median %.2fms, one-spec-edit median %.2fms, speedup %.1fx",
		cold/1e6, warm/1e6, speedup)
	if speedup < 3 {
		t.Errorf("edit recompute is only %.2fx faster than full cold detect, want >= 3x", speedup)
	}
}

// benchIngestSpecs synthesizes a bulk-ingest corpus: n distinct-keyed
// clones of the eval corpus's specs, interface names rotated so every
// clone lands under its own scope key.
func benchIngestSpecs(tb testing.TB, n int) []*Spec {
	tb.Helper()
	_, base := benchDetectCorpus(tb)
	out := make([]*Spec, 0, n)
	for i := 0; len(out) < n; i++ {
		sp := *base[i%len(base)]
		sp.Iface = fmt.Sprintf("bench.ingest%04d.ops", i)
		sp.API = ""
		sp.ID = fmt.Sprintf("%s-ingest%04d", sp.ID, i)
		out = append(out, &sp)
	}
	return out
}

// ingestUnbatched is the per-spec write path: one durable store
// commit (record append + fsync) per spec.
func ingestUnbatched(tb testing.TB, path string, specs []*Spec) {
	tb.Helper()
	st, err := specdb.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	for _, sp := range specs {
		if _, err := st.UpsertSpec(sp); err != nil {
			tb.Fatal(err)
		}
	}
}

// ingestBatched is the batched path: the whole import is one batch whose
// records reach the file in one write and become durable with one fsync.
func ingestBatched(tb testing.TB, path string, specs []*Spec) {
	tb.Helper()
	if _, _, err := ImportSpecStore(path, &SpecDB{Specs: specs}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSpecIngest pins the bulk-ingestion claim behind batched
// commits: "cold" commits every spec as its own transaction, "batched" is
// the same corpus through ImportSpecs as one commit. Record results in
// BENCH_detect.json.
func BenchmarkSpecIngest(b *testing.B) {
	specs := benchIngestSpecs(b, 1000)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			path := filepath.Join(b.TempDir(), "ingest.specdb")
			b.StartTimer()
			ingestUnbatched(b, path, specs)
		}
	})
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			path := filepath.Join(b.TempDir(), "ingest.specdb")
			b.StartTimer()
			ingestBatched(b, path, specs)
		}
	})
}

// TestSpecIngestSpeedup enforces the batched-commit acceptance bar: bulk
// ingestion of 1k specs through the batched import path must be at least
// 10× faster than committing each spec as its own transaction, and both
// paths must produce stores that read back the identical spec list.
func TestSpecIngestSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	specs := benchIngestSpecs(t, 1000)
	dir := t.TempDir()

	const runs = 5
	cold := medianRunNs(t, runs, func() {
		ingestUnbatched(t, filepath.Join(t.TempDir(), "cold.specdb"), specs)
	})
	batched := medianRunNs(t, runs, func() {
		ingestBatched(t, filepath.Join(t.TempDir(), "batched.specdb"), specs)
	})

	// Equivalence: both write paths materialize the same database in the
	// same import order.
	coldPath := filepath.Join(dir, "eq-cold.specdb")
	batchPath := filepath.Join(dir, "eq-batched.specdb")
	ingestUnbatched(t, coldPath, specs)
	ingestBatched(t, batchPath, specs)
	coldSpecs, err := LoadSpecStoreSpecs(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	batchSpecs, err := LoadSpecStoreSpecs(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(coldSpecs) != len(specs) || len(batchSpecs) != len(specs) {
		t.Fatalf("read back %d cold / %d batched specs, want %d", len(coldSpecs), len(batchSpecs), len(specs))
	}
	for i := range coldSpecs {
		if coldSpecs[i].Key() != batchSpecs[i].Key() {
			t.Fatalf("spec %d: cold key %q != batched key %q", i, coldSpecs[i].Key(), batchSpecs[i].Key())
		}
	}

	speedup := cold / batched
	t.Logf("per-spec-commit median %.2fms, one-commit import median %.2fms, speedup %.1fx",
		cold/1e6, batched/1e6, speedup)
	if speedup < 10 {
		t.Errorf("batched ingest is only %.2fx faster than per-spec commits, want >= 10x", speedup)
	}
}
