package seal

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/kernelgen"
)

// TestResidentStatsCountsComputedGroups pins what a resident's Stats
// count: the substrate work of every region group it computed, and nothing
// for the groups it replayed from its memo.
func TestResidentStatsCountsComputedGroups(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	inf, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResident(target)
	ctx := context.Background()
	opts := DetectRunOptions{Workers: 2}
	specs := inf.DB.Specs

	// Cold: every group computes, so the total is the run's own figures.
	res, gs, err := r.Detect(ctx, PlanGroups(specs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Computed != gs.Groups {
		t.Fatalf("cold run replayed groups: %+v", gs)
	}
	cold := r.Stats()
	if cold != res.Stats {
		t.Fatalf("cold total %+v, run reported %+v", cold, res.Stats)
	}
	if cold.EnsureBuilds == 0 || cold.PathCacheMisses == 0 {
		t.Fatalf("cold total recorded no substrate work: %+v", cold)
	}

	// Identical rerun: every group replays from the memo and adds nothing.
	if _, gs, err = r.Detect(ctx, PlanGroups(specs), opts); err != nil {
		t.Fatal(err)
	}
	if gs.Warm != gs.Groups {
		t.Fatalf("rerun computed groups: %+v", gs)
	}
	if got := r.Stats(); got != cold {
		t.Fatalf("rerun changed the total: %+v -> %+v", cold, got)
	}

	// One-spec edit: only the edited spec's group recomputes, and the
	// total grows by exactly that run's Stats, the group's work.
	edited := *specs[0]
	edited.OriginPatch += "-edited"
	next := append([]*Spec{&edited}, specs[1:]...)
	res, gs, err = r.Detect(ctx, PlanGroups(next), opts)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Computed != 1 {
		t.Fatalf("edit run not incremental: %+v", gs)
	}
	var subset []*Spec
	for _, s := range next {
		if s.Scope() == edited.Scope() {
			subset = append(subset, s)
		}
	}
	v, ok := r.memo.Load(edited.Scope())
	if !ok || v.(memoEntry).key != detectGroupKey(r.TargetHash, edited.Scope(), SpecSetHash(subset), detectConfigPart(opts.Limits)) {
		t.Fatal("recomputed group is not in the memo")
	}
	group := res.Stats
	if group.EnsureCalls == 0 {
		t.Fatalf("recomputed group charged no PDG work: %+v", group)
	}
	if got, want := r.Stats(), cold.Merge(group); got != want {
		t.Fatalf("total after edit = %+v, want cold total plus the group's %+v = %+v", got, group, want)
	}
}

// TestResidentCacheCountsPerRun runs two cold detections at once on one
// resident, each over its own region groups and each on its own view of
// one cache handle, as a daemon's concurrent requests do. Each run's
// PCache must hold exactly its own work: one miss and one write per group
// it owns, and the bytes of those groups' entries on disk. The handle the
// views came from counts nothing.
func TestResidentCacheCountsPerRun(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	inf, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Alternate region groups (one scope each) between the two runs.
	var runs [2][]*Spec
	side := make(map[string]int)
	for _, s := range inf.DB.Specs {
		k, ok := side[s.Scope()]
		if !ok {
			k = len(side) % 2
			side[s.Scope()] = k
		}
		runs[k] = append(runs[k], s)
	}
	r, err := NewResidentFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pc := openTestCache(t, dir)
	var got [2]CacheStats
	var wg sync.WaitGroup
	for i, specs := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := r.Detect(context.Background(), PlanGroups(specs), DetectRunOptions{Workers: 2, Cache: pc.View()})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = res.PCache
		}()
	}
	wg.Wait()
	for i, specs := range runs {
		want := CacheStats{}
		for _, g := range detect.ScopeGroups(specs) {
			subset := make([]*Spec, len(g))
			for k, si := range g {
				subset[k] = specs[si]
			}
			key := detectGroupKey(r.TargetHash, subset[0].Scope(), SpecSetHash(subset), detectConfigPart(Limits{}))
			info, err := os.Stat(filepath.Join(dir, "seal-analysis-cache", "v"+strconv.Itoa(cache.SchemaVersion),
				cache.TierDetectGroup, key[:2], key+".json"))
			if err != nil {
				t.Fatal(err)
			}
			want.Misses++
			want.Writes++
			want.WriteBytes += info.Size()
		}
		if got[i] != want || want.Writes == 0 {
			t.Errorf("run %d: PCache %+v, want %+v", i, got[i], want)
		}
	}
	if st := pc.Stats(); st != (CacheStats{}) {
		t.Errorf("the handle counted its views' work: %+v", st)
	}
}
