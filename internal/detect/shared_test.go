package detect

import (
	"context"
	"testing"

	"seal/internal/budget"
	"seal/internal/cir"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/spec"
)

// corpusSpecsAndProg runs inference over the default generated corpus and
// loads its tree — a realistic multi-spec, multi-region workload for the
// shared-substrate tests.
func corpusSpecsAndProg(t *testing.T) ([]*spec.Spec, *ir.Program) {
	t.Helper()
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	db := &spec.DB{}
	for _, p := range corpus.Patches {
		a, err := p.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		db.Specs = append(db.Specs, ValidateSpecs(a.PostProg, infer.InferPatch(a).Specs)...)
	}
	db.Dedup()
	var files []*cir.File
	for _, name := range corpus.SortedFileNames() {
		f, err := cir.ParseFile(name, corpus.Files[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	prog, err := ir.NewProgram(files...)
	if err != nil {
		t.Fatal(err)
	}
	return db.Specs, prog
}

// TestDetectParallelBuildsOnce asserts the central substrate property:
// however many workers run, each function's PDG is constructed at most once
// on the shared graph, a second pass over the same substrate rebuilds
// nothing, and the parallel output is identical to the sequential one.
func TestDetectParallelBuildsOnce(t *testing.T) {
	specs, prog := corpusSpecsAndProg(t)
	if len(specs) < 2 {
		t.Fatalf("corpus yielded %d specs; need several for a parallel run", len(specs))
	}

	seq := New(prog).Detect(specs)
	sh := NewShared(prog)
	par, err := runAll(context.Background(), sh, specs, 4, budget.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dumpRecs(par.Recs) != dumpBugs(seq) {
		t.Errorf("parallel reports differ from sequential.\nparallel:%s\nsequential:%s",
			dumpRecs(par.Recs), dumpBugs(seq))
	}

	// Every unit charges exactly the substrate work its own detectors
	// caused, so a cold run's per-group figures account for every build the
	// substrate now holds: each function once, however the workers raced.
	st := par.Stats
	if st.EnsureBuilds == 0 {
		t.Fatal("no PDG builds recorded")
	}
	if resident := int64(sh.Resident().PDGFuncs); st.EnsureBuilds != resident {
		t.Errorf("cold run charged %d builds, substrate holds %d function PDGs", st.EnsureBuilds, resident)
	}
	if st.EnsureCalls < st.EnsureBuilds {
		t.Errorf("EnsureCalls = %d < EnsureBuilds = %d", st.EnsureCalls, st.EnsureBuilds)
	}

	again, err := runAll(context.Background(), sh, specs, 4, budget.Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.EnsureBuilds != 0 {
		t.Errorf("second run on the same substrate rebuilt %d PDGs", again.Stats.EnsureBuilds)
	}
	if st.PathCacheHits+again.Stats.PathCacheHits == 0 {
		t.Error("path cache recorded no hits across two runs on one substrate")
	}
}

// TestGroupByScope pins the scheduler's grouping: indices partitioned by
// Spec.Scope in first-appearance order, preserving in-group input order.
func TestGroupByScope(t *testing.T) {
	mk := func(iface, api string) *spec.Spec {
		return &spec.Spec{Iface: iface, API: api}
	}
	specs := []*spec.Spec{
		mk("a.f", ""), mk("", "x"), mk("a.f", ""), mk("", "y"), mk("", "x"),
	}
	groups := ScopeGroups(specs)
	want := [][]int{{0, 2}, {1, 4}, {3}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for i := range want {
		if len(groups[i]) != len(want[i]) {
			t.Fatalf("group %d = %v, want %v", i, groups[i], want[i])
		}
		for j := range want[i] {
			if groups[i][j] != want[i][j] {
				t.Errorf("group %d = %v, want %v", i, groups[i], want[i])
			}
		}
	}
}
