package seal_test

// A cache entry is a pure function of its key: what a run stores, and what
// a replay of it reports, must not depend on what ran before it in the
// process, what ran beside it, how many workers it had, or what a resident
// substrate already held. Eviction under a size bound must likewise depend
// only on the cache's contents, not on the order a run's reads happened to
// take.

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"seal"
	"seal/internal/kernelgen"
)

// cacheEntries reads every entry file of the cache under dir, keyed by its
// path relative to dir.
func cacheEntries(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fillCache runs the cached inference and detection of corpus with the
// given worker count on a fresh cache and returns its entries.
func fillCache(t *testing.T, corpus *kernelgen.Corpus, workers int) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	pc := openCache(t, dir, 0)
	inf, err := seal.InferSpecsContext(ctx, corpus.Patches, seal.Options{Validate: true, Workers: workers, Cache: pc})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seal.DetectFiles(ctx, corpus.Files, inf.DB.Specs, seal.DetectRunOptions{Workers: workers, Cache: pc}); err != nil {
		t.Fatal(err)
	}
	return cacheEntries(t, dir)
}

// editAndRevert runs a detection, then one with specs[0] edited, on r
// without a cache: afterwards r's memo holds the edited group, so the
// original group misses the memo and recomputes on a warm substrate.
func editAndRevert(t *testing.T, r *seal.Resident, specs []*seal.Spec) {
	t.Helper()
	edited := *specs[0]
	edited.OriginPatch += "-edited"
	for _, run := range [][]*seal.Spec{specs, append([]*seal.Spec{&edited}, specs[1:]...)} {
		if _, _, err := r.Detect(context.Background(), seal.PlanGroups(run), seal.DetectRunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheEntriesArePureFunctionsOfKeys fills an infer and a detect-group
// cache for one corpus first, and then under four more process histories,
// and requires every entry file to be byte-identical to the first fill's
// entry of the same key.
func TestCacheEntriesArePureFunctionsOfKeys(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	ctx := context.Background()
	first := fillCache(t, corpus, 1)
	var groups int
	for name := range first {
		if strings.Contains(name, "detect-group") {
			groups++
		}
	}
	if groups == 0 || groups == len(first) {
		t.Fatalf("first fill wrote %d entries, %d of them detect groups", len(first), groups)
	}
	inf, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := inf.DB.Specs

	histories := map[string]map[string][]byte{}

	cfg := kernelgen.DefaultConfig()
	cfg.Seed = 2
	other := kernelgen.Generate(cfg)
	otherInf, err := seal.InferSpecs(other.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seal.DetectFiles(ctx, other.Files, otherInf.DB.Specs, seal.DetectRunOptions{}); err != nil {
		t.Fatal(err)
	}
	histories["after an unrelated run"] = fillCache(t, corpus, 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := seal.DetectFiles(ctx, corpus.Files, specs, seal.DetectRunOptions{Workers: 2}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	histories["beside another detection"] = fillCache(t, corpus, 1)
	close(stop)
	wg.Wait()

	histories["Workers: 4"] = fillCache(t, corpus, 4)

	r, err := seal.NewResidentFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	editAndRevert(t, r, specs)
	dir := t.TempDir()
	if _, gs, err := r.Detect(ctx, seal.PlanGroups(specs), seal.DetectRunOptions{Cache: openCache(t, dir, 0)}); err != nil || gs.Computed != 1 {
		t.Fatalf("reverted run computed %d groups (err %v), want 1", gs.Computed, err)
	}
	resident := cacheEntries(t, dir)
	if len(resident) != 1 {
		t.Fatalf("reverted run wrote %d entries, want 1", len(resident))
	}
	histories["a resident after an edit and revert"] = resident

	for name, h := range histories {
		if name != "a resident after an edit and revert" && len(h) != len(first) {
			t.Errorf("%s: %d entries, the first fill wrote %d", name, len(h), len(first))
		}
		var differ []string
		for path, data := range h {
			if want, ok := first[path]; !ok {
				t.Errorf("%s: entry %s has no counterpart in the first fill", name, path)
			} else if !bytes.Equal(data, want) {
				differ = append(differ, filepath.Base(filepath.Dir(filepath.Dir(path))))
			}
		}
		if len(differ) > 0 {
			sort.Strings(differ)
			t.Errorf("%s: %d of %d entries differ from the first fill's (tiers %v)", name, len(differ), len(h), differ)
		}
	}
}

// TestMemoAndDiskReplaysReportAlike replays every group of one detection
// once from a resident's memo, filled by a resident that recomputed a group
// after an edit and revert, and once from a disk cache filled by a fresh
// substrate. The two replays must report the same work.
func TestMemoAndDiskReplaysReportAlike(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	ctx := context.Background()
	inf, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := inf.DB.Specs
	dir := t.TempDir()
	if _, _, err := seal.DetectFiles(ctx, corpus.Files, specs, seal.DetectRunOptions{Cache: openCache(t, dir, 0)}); err != nil {
		t.Fatal(err)
	}
	r, err := seal.NewResidentFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	editAndRevert(t, r, specs)
	if _, gs, err := r.Detect(ctx, seal.PlanGroups(specs), seal.DetectRunOptions{}); err != nil || gs.Computed != 1 {
		t.Fatalf("reverted run computed %d groups (err %v), want 1", gs.Computed, err)
	}

	memo, mgs, err := r.Detect(ctx, seal.PlanGroups(specs), seal.DetectRunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	disk, dgs, err := seal.DetectFiles(ctx, corpus.Files, specs, seal.DetectRunOptions{Cache: openCache(t, dir, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if mgs.Warm != mgs.Groups || dgs.Warm != dgs.Groups {
		t.Fatalf("not all replays: memo %+v, disk %+v", mgs, dgs)
	}
	if memo.Stats != disk.Stats || memo.Solver != disk.Solver {
		t.Errorf("memo replay reports Stats %+v Solver %+v; disk replay Stats %+v Solver %+v",
			memo.Stats, memo.Solver, disk.Stats, disk.Solver)
	}
	if disk.Solver.Checks == 0 {
		t.Errorf("disk replay reports no solver checks: %+v", disk.Solver)
	}
}

// copyCache copies the cache tree under src to dst, keeping each file's
// modification time, the recency eviction orders by.
func copyCache(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return err
		}
		return os.Chtimes(to, info.ModTime(), info.ModTime())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundedEvictionIsDeterministic fills a cache bounded at half of one
// detection's entries, then, 20 times, runs the same bounded detection
// over two copies of it. The hits and the recomputed writes of each run
// must leave the same entries behind in both copies.
func TestBoundedEvictionIsDeterministic(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	ctx := context.Background()
	inf, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := inf.DB.Specs
	detect := func(dir string, bound int64) *seal.DetectResult {
		t.Helper()
		res, _, err := seal.DetectFiles(ctx, corpus.Files, specs, seal.DetectRunOptions{Cache: openCache(t, dir, bound)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bound := detect(t.TempDir(), 0).PCache.WriteBytes / 2
	filled := t.TempDir()
	detect(filled, bound)

	const rounds = 20
	differ := 0
	for round := 0; round < rounds; round++ {
		var left [2][]string
		for i := range left {
			dir := t.TempDir()
			copyCache(t, filled, dir)
			if res := detect(dir, bound); res.PCache.Hits == 0 || res.PCache.Evictions == 0 {
				t.Fatalf("round %d: no hits or no evictions: %+v", round, res.PCache)
			}
			for name := range cacheEntries(t, dir) {
				left[i] = append(left[i], name)
			}
			sort.Strings(left[i])
		}
		if !slices.Equal(left[0], left[1]) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d rounds left different entries in two identical bounded runs", differ, rounds)
	}
}
