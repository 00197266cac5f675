package difftest

import (
	"context"
	"sync"
	"testing"

	"seal"
	"seal/internal/detect"
	"seal/internal/kernelgen"
	"seal/internal/pdg"
	"seal/internal/randprog"
	"seal/internal/vfp"
)

// TestSharedProgramConcurrency hammers the shared read-only ir.Program
// from every concurrent entry point at once: several resident detections
// (each spawning 8 workers over its own substrate on the same program),
// several sequential detectors, and parallel spec inference. The point is
// the -race build in CI: any unsynchronized lazy initialization reachable
// from the demand-driven PDG or the ir.Program accessors shows up here as
// a data race, and any cross-worker state leak shows up as a result
// divergence.
func TestSharedProgramConcurrency(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	res, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := seal.LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	want := NormalizeBugs(seal.Detect(target, res.DB.Specs))
	wantRecs := NormalizeRecs(detect.Records(seal.Detect(target, res.DB.Specs)))
	wantDB := NormalizeDB(res.DB)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := seal.NewResident(target).Detect(context.Background(), seal.PlanGroups(res.DB.Specs), seal.DetectRunOptions{Workers: 8})
			if err != nil || NormalizeRecs(got.Recs) != wantRecs {
				errs <- "concurrent resident detection diverged from reference"
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := NormalizeBugs(seal.Detect(target, res.DB.Specs)); got != want {
				errs <- "concurrent sequential Detect diverged from reference"
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := seal.InferSpecsContext(context.Background(), corpus.Patches, seal.Options{Validate: true, Workers: 8})
			if err != nil {
				errs <- err.Error()
				return
			}
			if got := NormalizeDB(r.DB); got != wantDB {
				errs <- "concurrent InferSpecsContext{Workers:8} diverged from reference"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSharedGraphConcurrency hammers ONE pdg.Graph from many goroutines at
// once: concurrent Ensure of overlapping function sets, concurrent edge
// reads, and concurrent value-flow slicing over the same graph. Under
// -race this flushes out any unsynchronized path through the single-flight
// construction or the copy-on-write edge lists; without -race it still
// checks that every worker observes the same edge counts and that each
// function was built exactly once.
func TestSharedGraphConcurrency(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	target, err := seal.LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	prog := target.Prog

	// Reference edge counts from a private, sequentially-built graph —
	// fully built first, since a function's incoming interprocedural edges
	// materialize when its callers are built.
	ref := pdg.New(prog)
	for _, fn := range prog.FuncList {
		ref.Ensure(fn)
	}
	want := make(map[string]int, len(prog.FuncList))
	for _, fn := range prog.FuncList {
		n := 0
		for _, s := range fn.Stmts() {
			n += ref.SuccEdges(s).Len()
		}
		want[fn.Name] = n
	}

	g := pdg.New(prog)
	const workers = 16
	var tallies [workers]pdg.Stats
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := g.Counting(&tallies[w])
			sl := vfp.NewSlicer(g)
			// Each worker walks the function list from a different offset so
			// Ensure claims collide on overlapping sets.
			for i := range prog.FuncList {
				fn := prog.FuncList[(i+w*7)%len(prog.FuncList)]
				g.Ensure(fn)
				// Concurrent edge reads while other workers are still
				// building; exact counts are checked after the barrier,
				// once every caller has materialized its edges.
				for _, s := range fn.Stmts() {
					succs := g.SuccEdges(s)
					for j := 0; j < succs.Len(); j++ {
						succs.At(j)
					}
				}
				for _, s := range fn.Entry.Stmts {
					if s.IsParamDef() {
						sl.PathsFrom(s)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every worker ensured every function, so single-flight means each
	// function was built by exactly one worker's handle.
	var builds int64
	for _, st := range tallies {
		builds += st.EnsureBuilds
	}
	if builds != int64(len(prog.FuncList)) {
		t.Errorf("EnsureBuilds = %d over %d functions: single-flight failed", builds, len(prog.FuncList))
	}
	for _, fn := range prog.FuncList {
		n := 0
		for _, s := range fn.Stmts() {
			n += g.SuccEdges(s).Len()
		}
		if n != want[fn.Name] {
			t.Errorf("%s: %d data edges on shared graph, want %d", fn.Name, n, want[fn.Name])
		}
	}
}

// TestSharedSubstrateConcurrency runs many concurrent detections over ONE
// resident substrate (instead of a fresh substrate per run) and checks
// every round reproduces the reference output — the path cache, region
// cache, index, and group memo must be both race-free and result-stable
// under reuse.
func TestSharedSubstrateConcurrency(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	res, err := seal.InferSpecs(corpus.Patches, seal.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	target, err := seal.LoadFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	want := NormalizeRecs(detect.Records(seal.Detect(target, res.DB.Specs)))

	r := seal.NewResident(target)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := r.Detect(context.Background(), seal.PlanGroups(res.DB.Specs), seal.DetectRunOptions{Workers: 8})
			if err != nil || NormalizeRecs(got.Recs) != want {
				errs <- "detection over reused substrate diverged from reference"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if hr := r.Stats().PathHitRate(); hr == 0 {
		t.Error("path cache never hit across repeated runs on one substrate")
	}
}

// TestGeneratedCasesConcurrent runs independent generated cases in
// parallel goroutines — inference and detection of distinct cases must
// never interfere (no hidden package-level state anywhere in the
// pipeline, including the case generator itself).
func TestGeneratedCasesConcurrent(t *testing.T) {
	const n = 24
	var wg sync.WaitGroup
	failures := make(chan string, n)
	for seed := int64(0); seed < n; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			res, err := RunCase(randprog.GenPatchCase(seed))
			if err != nil {
				failures <- err.Error()
				return
			}
			if !res.Ok() {
				failures <- res.Report()
			}
		}(seed)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
}
