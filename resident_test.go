package seal

import (
	"context"
	"testing"

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
	res, gs, err := r.Detect(ctx, specs, opts)
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
	if _, gs, err = r.Detect(ctx, specs, opts); err != nil {
		t.Fatal(err)
	}
	if gs.Warm != gs.Groups {
		t.Fatalf("rerun computed groups: %+v", gs)
	}
	if got := r.Stats(); got != cold {
		t.Fatalf("rerun changed the total: %+v -> %+v", cold, got)
	}

	// One-spec edit: only the edited spec's group recomputes, and the
	// total grows by exactly that group's Outcome.Stats.
	edited := *specs[0]
	edited.OriginPatch += "-edited"
	next := append([]*Spec{&edited}, specs[1:]...)
	if _, gs, err = r.Detect(ctx, next, opts); err != nil {
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
	v, ok := r.memo.Load(detectGroupKey(r.TargetHash, edited.Scope(), SpecSetHash(subset), opts.Limits))
	if !ok {
		t.Fatal("recomputed group is not in the memo")
	}
	group := v.(*detect.Outcome).Stats
	if group.EnsureCalls == 0 {
		t.Fatalf("recomputed group charged no PDG work: %+v", group)
	}
	if got, want := r.Stats(), cold.Merge(group); got != want {
		t.Fatalf("total after edit = %+v, want cold total plus the group's %+v = %+v", got, group, want)
	}
}
