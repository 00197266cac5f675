package seal

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/kernelgen"
	"seal/internal/obs"
	"seal/internal/report"
)

// probeRun is one observed detection's user-visible output.
type probeRun struct {
	stdout, manifest, metrics string
	res                       *DetectResult
	gs                        GroupedStats
}

// observedDetect runs DetectFiles at the given GOMAXPROCS with a live
// recorder and renders its stdout, redacted manifest and redacted metrics;
// no goroutine it starts may outlive it.
func observedDetect(t *testing.T, procs int, files map[string]string, specs []*Spec, pc *Cache) probeRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	before := runtime.NumGoroutine()
	rec := NewRecorder()
	rec.StartRun("detect")
	res, gs, err := DetectFiles(context.Background(), files, specs, DetectRunOptions{Workers: 2, Obs: rec, Cache: pc.View()})
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
	art, err := FinishDetectRun(rec, res, len(specs), 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := art.Manifest.Redact().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return probeRun{
		stdout:   report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), false),
		manifest: string(m),
		metrics:  obs.RedactTimings(art.Metrics),
		res:      res,
		gs:       gs,
	}
}

// TestGroupProbesPooled: the persistent-cache probes of a warm detection
// run on a pool, and the result is the serial one's. At GOMAXPROCS 1 and 4
// a warm run prints the cold run's stdout and manifest, and the two warm
// runs' redacted metrics agree; with the middle group's entry corrupted,
// exactly that group recomputes (one corrupt miss, and one write, which
// makes that entry verify again) and the output is unchanged; no probe
// goroutine outlives a run. A resident's probe hits fill its memo, and a
// run that mixes memo hits with disk probes replays each group's own.
func TestGroupProbesPooled(t *testing.T) {
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
	inf, err := InferSpecs(corpus.Patches, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := inf.DB.Specs
	cacheDir := t.TempDir()
	pc := openTestCache(t, cacheDir)
	cold := observedDetect(t, 4, corpus.Files, specs, pc)
	groups := detect.ScopeGroups(specs)
	if cold.gs.Computed != len(groups) || len(groups) < 3 {
		t.Fatalf("cold run: %+v over %d groups", cold.gs, len(groups))
	}

	// The middle group's entry file.
	mid := groups[len(groups)/2]
	subset := make([]*Spec, len(mid))
	for k, si := range mid {
		subset[k] = specs[si]
	}
	key := detectGroupKey(TargetHash(corpus.Files), subset[0].Scope(), SpecSetHash(subset), detectConfigPart(Limits{}))
	entry := filepath.Join(cacheDir, "seal-analysis-cache", "v"+strconv.Itoa(cache.SchemaVersion),
		cache.TierDetectGroup, key[:2], key+".json")
	good, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	var warm []probeRun
	for _, procs := range []int{1, 4} {
		w := observedDetect(t, procs, corpus.Files, specs, pc)
		if w.gs.Warm != len(groups) || w.res.PCache.Hits != int64(len(groups)) || w.res.PCache.Misses != 0 {
			t.Errorf("GOMAXPROCS %d warm: %+v, %+v", procs, w.gs, w.res.PCache)
		}
		if w.stdout != cold.stdout || w.manifest != cold.manifest {
			t.Errorf("GOMAXPROCS %d warm: stdout or redacted manifest differs from the cold run", procs)
		}
		warm = append(warm, w)

		bad := bytes.Clone(good)
		bad[len(bad)-1] ^= 0xff
		if err := os.WriteFile(entry, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		c := observedDetect(t, procs, corpus.Files, specs, pc)
		st := c.res.PCache
		if st.Corrupt != 1 || st.Misses != 1 || st.Writes != 1 || st.Hits != int64(len(groups)-1) || c.gs.Computed != 1 {
			t.Errorf("GOMAXPROCS %d corrupted: %+v, %+v", procs, c.gs, st)
		}
		if c.stdout != cold.stdout || c.manifest != cold.manifest {
			t.Errorf("GOMAXPROCS %d corrupted: stdout or redacted manifest differs from the cold run", procs)
		}
		// The one write is the middle group's: its entry verifies again.
		var o detect.Outcome
		if pc, err := cache.Open(cacheDir, true); err != nil || !pc.Get(cache.TierDetectGroup, key, &o) {
			t.Errorf("GOMAXPROCS %d corrupted: the middle group's entry was not rewritten (%v)", procs, err)
		}
	}
	if warm[0].metrics != warm[1].metrics {
		t.Error("warm runs at GOMAXPROCS 1 and 4: redacted metrics differ")
	}

	// A resident on the filled cache. Its first run asks for the first
	// half of the groups, which it probes on the pool and promotes into its
	// memo; the second, for every group, replays that half from the memo
	// and probes the rest, which sit at other indexes than their probes';
	// the third replays every group from the memo without touching the disk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r, err := NewResidentFiles(corpus.Files)
	if err != nil {
		t.Fatal(err)
	}
	half := len(groups) / 2
	var firstHalf []*Spec
	for _, g := range groups[:half] {
		for _, si := range g {
			firstHalf = append(firstHalf, specs[si])
		}
	}
	for run, tc := range []struct {
		specs          []*Spec
		hits, memoSize int
	}{{firstHalf, half, half}, {specs, len(groups) - half, len(groups)}, {specs, 0, len(groups)}} {
		res, gs, err := r.Detect(context.Background(), PlanGroups(tc.specs), DetectRunOptions{Workers: 2, Cache: pc.View()})
		if err != nil {
			t.Fatal(err)
		}
		if gs.Computed != 0 || res.PCache.Hits != int64(tc.hits) || res.PCache.Misses != 0 || r.MemoEntries() != tc.memoSize {
			t.Errorf("resident run %d: %+v, %+v, %d memo entries", run, gs, res.PCache, r.MemoEntries())
		}
		if run > 0 && report.RenderDetectStdout(res.Recs, res.Degraded, res.Failures, len(specs), false) != cold.stdout {
			t.Errorf("resident run %d: stdout differs from the cold run", run)
		}
	}
}

// TestResidentMemoRunStartsNoGoroutine: a resident run with no cache dir
// whose groups all hit the memo has nothing to probe, so it starts no
// goroutine, at any GOMAXPROCS: a sampler sees the goroutine count stay at
// its start through repeated runs.
func TestResidentMemoRunStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
	opts := DetectRunOptions{Workers: 1}
	if _, _, err := r.Detect(context.Background(), PlanGroups(inf.DB.Specs), opts); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	waitGoroutines(t, before)

	var peak atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		_, gs, err := r.Detect(context.Background(), PlanGroups(inf.DB.Specs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if gs.Warm != gs.Groups {
			t.Fatalf("memo run computed groups: %+v", gs)
		}
	}
	close(stop)
	<-done
	// The sampler itself is the one goroutine above the start.
	if p := peak.Load(); p > int64(before+1) {
		t.Errorf("peak %d goroutines during memo runs, %d before (plus the sampler)", p, before)
	}
}
