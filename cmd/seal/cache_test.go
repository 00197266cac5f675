package main

// End-to-end contract tests for the persistent analysis cache: a warm run
// must be byte-identical to a cold one in every user-visible artifact
// (spec database, bug reports, redacted manifest, redacted metrics), a
// corrupted cache must silently degrade to a recompute with identical
// output, and a read-only cache must never write.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal"
	"seal/internal/cache"
	"seal/internal/obs"
)

// cacheRun is one infer-then-detect pipeline execution against a shared
// cache directory, with every artifact captured for comparison.
type cacheRun struct {
	specDB          string // spec database file contents
	inferManifest   string // redacted infer manifest
	inferMetrics    string // redacted infer metrics
	detectOut       string // detect stdout (bug reports + summary)
	detectManifest  string // redacted detect manifest
	detectMetrics   string // redacted detect metrics
	inferRaw        counters
	detectRaw       counters
	detectRawCalled bool
}

// counters is an unredacted manifest's counters section.
type counters map[string]float64

// rawCounters loads the unredacted manifest's counters.
func rawCounters(t *testing.T, path string) counters {
	t.Helper()
	m, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return m.Counters
}

// runCachedPipeline executes infer and detect with -cache-dir set, writing
// artifacts under dir/<tag>, and captures everything a caller might diff.
// The spec DB is written to a tag-independent path so manifests (which
// record output paths) stay comparable across runs.
func runCachedPipeline(t *testing.T, dir, corpusDir, specFile, cacheDir, tag string, extra ...string) cacheRun {
	t.Helper()
	outDir := filepath.Join(dir, tag)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sanitize := func(s string) string {
		return strings.ReplaceAll(s, dir, "$WORK")
	}
	var r cacheRun
	inferManifest := filepath.Join(outDir, "infer_manifest.json")
	inferMetrics := filepath.Join(outDir, "infer_metrics.txt")
	captureStdout(t, func() error {
		return cmdInfer(append([]string{
			"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile,
			"-cache-dir", cacheDir,
			"-manifest-out", inferManifest, "-metrics-out", inferMetrics,
		}, extra...))
	})
	db, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	r.specDB = string(db)
	r.inferManifest = sanitize(redactedManifest(t, inferManifest))
	r.inferMetrics = redactedMetrics(t, inferMetrics)
	r.inferRaw = rawCounters(t, inferManifest)

	detectManifest := filepath.Join(outDir, "detect_manifest.json")
	detectMetrics := filepath.Join(outDir, "detect_metrics.txt")
	r.detectOut = sanitize(captureStdout(t, func() error {
		return cmdDetect(append([]string{
			"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile,
			"-cache-dir", cacheDir,
			"-manifest-out", detectManifest, "-metrics-out", detectMetrics,
		}, extra...))
	}))
	r.detectManifest = sanitize(redactedManifest(t, detectManifest))
	r.detectMetrics = redactedMetrics(t, detectMetrics)
	r.detectRaw = rawCounters(t, detectManifest)
	r.detectRawCalled = true
	return r
}

// diffRuns asserts every comparable artifact of two runs is byte-identical.
func diffRuns(t *testing.T, what string, a, b cacheRun) {
	t.Helper()
	for _, c := range []struct{ name, x, y string }{
		{"spec DB", a.specDB, b.specDB},
		{"redacted infer manifest", a.inferManifest, b.inferManifest},
		{"redacted infer metrics", a.inferMetrics, b.inferMetrics},
		{"detect stdout", a.detectOut, b.detectOut},
		{"redacted detect manifest", a.detectManifest, b.detectManifest},
		{"redacted detect metrics", a.detectMetrics, b.detectMetrics},
	} {
		if c.x != c.y {
			t.Errorf("%s: %s differs between runs:\n--- first ---\n%s\n--- second ---\n%s", what, c.name, c.x, c.y)
		}
	}
}

// TestCLICacheWarmColdIdentity is the core correctness contract: with a
// persistent cache configured, a second (warm) run of the identical
// pipeline serves every analysis from disk yet produces byte-identical
// reports, spec databases, redacted manifests, and redacted metrics.
func TestCLICacheWarmColdIdentity(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}

	cold := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "cold")
	warm := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "warm")
	diffRuns(t, "warm vs cold", cold, warm)

	// The cold run must have populated the cache, and the warm run must
	// have actually served from it — otherwise identity is vacuous.
	for _, run := range []struct {
		name string
		c    counters
	}{{"infer", cold.inferRaw}, {"detect", cold.detectRaw}} {
		if run.c["seal_pcache_writes_total"] == 0 || run.c["seal_pcache_write_bytes_total"] == 0 {
			t.Errorf("cold %s wrote no cache entries: %v", run.name, run.c)
		}
	}
	for _, run := range []struct {
		name string
		c    counters
	}{{"infer", warm.inferRaw}, {"detect", warm.detectRaw}} {
		if run.c["seal_pcache_hits_total"] == 0 || run.c["seal_pcache_misses_total"] != 0 ||
			run.c["seal_pcache_read_bytes_total"] == 0 {
			t.Errorf("warm %s was not fully served from cache: %v", run.name, run.c)
		}
		if run.c["seal_pcache_writes_total"] != 0 || run.c["seal_pcache_write_bytes_total"] != 0 {
			t.Errorf("warm %s rewrote cache entries: %v", run.name, run.c)
		}
	}

	// -cache-clear wipes the cache's own subtree: the next run is cold
	// again (recomputes and rewrites) but still byte-identical.
	cleared := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "cleared", "-cache-clear")
	diffRuns(t, "cleared vs cold", cold, cleared)
	if c := cleared.inferRaw; c["seal_pcache_hits_total"] != 0 || c["seal_pcache_writes_total"] == 0 {
		t.Errorf("-cache-clear infer still hit the cache: %v", c)
	}
}

// TestCLICacheWorkersColdWarmIdentity pins per-unit work attribution: a
// cache filled by concurrent region groups (-workers 4) replays at
// -workers 1 with byte-identical reports, redacted manifests, and redacted
// metrics, and both match a cold -workers 1 run. Each group's PDG counters
// are the work its own detectors caused, so the raw cold figures sum to
// the same totals however the groups overlapped; a warm run replays only
// findings and builds nothing.
func TestCLICacheWorkersColdWarmIdentity(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}

	ref := runCachedPipeline(t, dir, corpusDir, specFile, filepath.Join(dir, "ref-cache"), "ref", "-workers", "1")
	cold := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "cold", "-workers", "4")
	warm := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "warm", "-workers", "1")
	diffRuns(t, "cold -workers 4 vs cold -workers 1", ref, cold)
	diffRuns(t, "warm -workers 1 vs cold -workers 4", cold, warm)
	if c := warm.detectRaw; c["seal_pcache_hits_total"] == 0 || c["seal_pcache_misses_total"] != 0 {
		t.Errorf("warm detect was not fully served from cache: %v", c)
	}
	if c := cold.detectRaw; c["seal_pdg_builds_total"] == 0 || c["seal_pdg_ensure_calls_total"] == 0 {
		t.Errorf("cold detect recorded no PDG work: %v", c)
	}
	for _, name := range []string{"seal_pdg_builds_total", "seal_pdg_ensure_calls_total"} {
		if r, c := ref.detectRaw[name], cold.detectRaw[name]; r != c {
			t.Errorf("%s: cold -workers 1 = %v, cold -workers 4 = %v", name, r, c)
		}
	}
	if b := warm.detectRaw["seal_pdg_builds_total"]; b != 0 {
		t.Errorf("warm detect built %v PDGs", b)
	}
}

// TestCLICacheCorruptFallback flips bytes in every cached entry and
// requires the next run to detect the corruption via checksums, count
// misses, recompute, and still produce byte-identical output — with
// exit code 0 (no error) throughout.
func TestCLICacheCorruptFallback(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}

	cold := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "cold")

	// Corrupt every entry file in place (overwrite the tail so size and
	// mtime games can't save a naive reader).
	var corrupted int
	err := filepath.Walk(cacheDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i := len(data) / 2; i < len(data); i++ {
			data[i] ^= 0xFF
		}
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("cold run left no cache entry files to corrupt")
	}

	damaged := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "damaged")
	diffRuns(t, "corrupt-cache vs cold", cold, damaged)
	if c := damaged.detectRaw; c["seal_pcache_corrupt_total"] == 0 {
		t.Errorf("corrupted detect entries were not counted: %v", c)
	}
	if c := damaged.inferRaw; c["seal_pcache_corrupt_total"] == 0 {
		t.Errorf("corrupted infer entries were not counted: %v", c)
	}
	if c := damaged.detectRaw; c["seal_pcache_hits_total"] != 0 {
		t.Errorf("corrupted entries served as hits: %v", c)
	}

	// The damaged run rewrote good entries, so a fourth run is warm again.
	healed := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "healed")
	diffRuns(t, "healed vs cold", cold, healed)
	if c := healed.detectRaw; c["seal_pcache_hits_total"] == 0 {
		t.Errorf("cache did not heal after corruption recompute: %v", c)
	}
}

// TestCLICacheReadOnly runs the pipeline with -cache-readonly against an
// empty cache: the run must succeed, count misses, and leave no entry
// files behind.
func TestCLICacheReadOnly(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}

	r := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "ro", "-cache-readonly")
	if c := r.inferRaw; c["seal_pcache_writes_total"] != 0 {
		t.Errorf("read-only infer wrote entries: %v", c)
	}
	if c := r.detectRaw; c["seal_pcache_writes_total"] != 0 {
		t.Errorf("read-only detect wrote entries: %v", c)
	}
	var files []string
	if err := filepath.Walk(cacheDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("read-only cache left %d entry files: %v", len(files), files)
	}
}

// TestCLICachePartialWarmInfer pins the solver figures of a warm inference
// run: each patch's cache entry carries the solver work computing it took,
// so a run over a cache filled from only some of the patches, and a fully
// warm run after it, export the cold run's seal_solver_sat_checks_total
// (which redaction keeps) and byte-identical redacted manifests and
// metrics.
func TestCLICachePartialWarmInfer(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}
	// Fill the cache from every patch but the first.
	entries, err := os.ReadDir(filepath.Join(corpusDir, "patches"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("corpus has %d patches; a partial fill needs 2+", len(entries))
	}
	subset := filepath.Join(dir, "subset")
	for _, e := range entries[1:] {
		copyTree(t, filepath.Join(corpusDir, "patches", e.Name()), filepath.Join(subset, e.Name()))
	}
	captureStdout(t, func() error {
		return cmdInfer([]string{"-patches", subset, "-out", filepath.Join(dir, "subset.json"), "-cache-dir", cacheDir})
	})

	cold := runCachedPipeline(t, dir, corpusDir, specFile, filepath.Join(dir, "cold-cache"), "cold")
	partial := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "partial")
	warm := runCachedPipeline(t, dir, corpusDir, specFile, cacheDir, "warm")
	diffRuns(t, "partly warm vs cold", cold, partial)
	diffRuns(t, "fully warm vs cold", cold, warm)
	if c := partial.inferRaw; c["seal_pcache_hits_total"] != float64(len(entries)-1) || c["seal_pcache_misses_total"] != 1 {
		t.Errorf("partly warm infer cache = %v, want %d hits and 1 miss", c, len(entries)-1)
	}
	if c := warm.inferRaw; c["seal_pcache_hits_total"] != float64(len(entries)) || c["seal_pcache_misses_total"] != 0 {
		t.Errorf("fully warm infer cache = %v, want %d hits and no miss", c, len(entries))
	}
	if !strings.Contains(cold.inferMetrics, "\nseal_solver_sat_checks_total ") {
		t.Error("redacted infer metrics lost seal_solver_sat_checks_total; the identity check is vacuous")
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// specEntries lists the entry files of the spec replay tier under
// cacheDir.
func specEntries(t *testing.T, cacheDir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(cacheDir, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil || info.IsDir() {
			return err
		}
		if filepath.Base(filepath.Dir(filepath.Dir(path))) == cache.TierSpecs {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCLICacheSpecReplay drives the spec replay tier through detect: a
// cold run fills one entry for specs.json, a warm run replays it, a
// corrupted entry is a counted miss that is rewritten, an edited file is a
// new key, -cache-readonly writes nothing and -cache-clear starts over.
// Every run prints the uncached run's stdout and redacted metrics byte for
// byte, and a malformed file fails with the uncached error and is never
// stored. infer -append counts its replay in its own run's counters.
func TestCLICacheSpecReplay(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	cacheDir := filepath.Join(dir, "cache")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() error {
		return cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile})
	})
	tree := filepath.Join(corpusDir, "tree")
	type run struct {
		out, metrics string
		c            counters
	}
	detect := func(tag, specs string, extra ...string) run {
		t.Helper()
		manifest, metrics := filepath.Join(dir, tag+"-manifest.json"), filepath.Join(dir, tag+"-metrics.txt")
		out := captureStdout(t, func() error {
			return cmdDetect(append([]string{"-target", tree, "-specs", specs,
				"-manifest-out", manifest, "-metrics-out", metrics}, extra...))
		})
		return run{out, redactedMetrics(t, metrics), rawCounters(t, manifest)}
	}
	cached := []string{"-cache-dir", cacheDir}
	ref := detect("ref", specFile)
	want := func(what string, r run, hits, misses, writes, corrupt float64) {
		t.Helper()
		if r.out != ref.out || r.metrics != ref.metrics {
			t.Errorf("%s: stdout or redacted metrics differ from the uncached run", what)
		}
		c := r.c
		if c["seal_pcache_hits_total"] != hits || c["seal_pcache_misses_total"] != misses ||
			c["seal_pcache_writes_total"] != writes || c["seal_pcache_corrupt_total"] != corrupt {
			t.Errorf("%s: cache counters %v, want %v hits, %v misses, %v writes, %v corrupt",
				what, c, hits, misses, writes, corrupt)
		}
	}

	cold := detect("cold", specFile, cached...)
	groups := cold.c["seal_pcache_misses_total"] - 1 // every group, and the spec file
	want("cold", cold, 0, groups+1, groups+1, 0)
	entries := specEntries(t, cacheDir)
	if len(entries) != 1 {
		t.Fatalf("cold run left %d spec entries, want 1", len(entries))
	}
	want("warm", detect("warm", specFile, cached...), groups+1, 0, 0, 0)

	// Flip the entry's last payload byte: its checksum fails, the file is
	// decoded again and the entry rewritten.
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	want("corrupted entry", detect("corrupt", specFile, cached...), groups, 1, 1, 1)
	want("healed", detect("healed", specFile, cached...), groups+1, 0, 0, 0)

	// The same specs in other bytes: a new key, beside the old entry.
	edited := filepath.Join(dir, "edited.json")
	db, err := seal.ReadSpecFile(specFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := db.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edited, compact, 0o644); err != nil {
		t.Fatal(err)
	}
	want("edited file", detect("edited", edited, cached...), groups, 1, 1, 0)
	if n := len(specEntries(t, cacheDir)); n != 2 {
		t.Errorf("after the edit the cache holds %d spec entries, want 2", n)
	}

	roCache := filepath.Join(dir, "ro-cache")
	want("read-only, empty", detect("ro", specFile, "-cache-dir", roCache, "-cache-readonly"), 0, groups+1, 0, 0)
	if n := len(specEntries(t, roCache)); n != 0 {
		t.Errorf("a read-only run left %d spec entries", n)
	}
	want("read-only, warm", detect("ro-warm", edited, append(cached, "-cache-readonly")...), groups+1, 0, 0, 0)

	want("cleared", detect("cleared", specFile, append(cached, "-cache-clear")...), 0, groups+1, groups+1, 0)
	if n := len(specEntries(t, cacheDir)); n != 1 {
		t.Errorf("after -cache-clear the cache holds %d spec entries, want 1", n)
	}

	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"specs": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, plainErr := seal.ReadSpecFile(malformed, nil)
	for i := 0; i < 2; i++ {
		err := cmdDetect([]string{"-target", tree, "-specs", malformed, "-cache-dir", cacheDir})
		if plainErr == nil || err == nil || err.Error() != plainErr.Error() {
			t.Errorf("malformed file, run %d: error %v, want %v", i, err, plainErr)
		}
	}
	if n := len(specEntries(t, cacheDir)); n != 1 {
		t.Errorf("a malformed file left the cache with %d spec entries, want 1", n)
	}

	// infer -append replays the file it merges into and counts it.
	patches, err := os.ReadDir(filepath.Join(corpusDir, "patches"))
	if err != nil {
		t.Fatal(err)
	}
	inferManifest := filepath.Join(dir, "append-manifest.json")
	for i := 0; i < 2; i++ {
		captureStdout(t, func() error {
			return cmdInfer(append([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", filepath.Join(dir, "merged.json"),
				"-append", specFile, "-manifest-out", inferManifest}, cached...))
		})
	}
	if c := rawCounters(t, inferManifest); c["seal_pcache_hits_total"] != float64(len(patches)+1) || c["seal_pcache_misses_total"] != 0 {
		t.Errorf("warm infer -append: cache counters %v, want %d hits and no miss", c, len(patches)+1)
	}
}
