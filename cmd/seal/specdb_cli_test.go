package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/detect"
	"seal/internal/faultinject"
	"seal/internal/spec"
	"seal/internal/specdb"
)

// buildSpecStore generates a corpus, infers its specs, and imports them
// into a fresh spec store via the specdb subcommand. Returns the source
// tree, the flat spec file, and the store path.
func buildSpecStore(t *testing.T) (tree, specFile, storePath string) {
	t.Helper()
	corpusDir, specFile := buildCorpus(t)
	storePath = filepath.Join(t.TempDir(), "specs.specdb")
	out := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-import", specFile})
	})
	var added, skipped int
	if _, err := fmt.Sscanf(out, "imported %d specs into", &added); err != nil || added == 0 {
		t.Fatalf("import reported no specs: %q", out)
	}
	if !strings.Contains(out, "(0 already present)") {
		t.Fatalf("fresh import reported skips: %q", out)
	}
	_ = skipped
	return filepath.Join(corpusDir, "tree"), specFile, storePath
}

// TestCLISpecDBDetectIdentity pins the substrate-swap contract at the CLI
// surface: `seal detect -spec-db` must print the same bytes as the
// flat-file run — in process, warm from a persistent cache, and sharded
// across spawned workers that receive the store-loaded specs inline.
func TestCLISpecDBDetectIdentity(t *testing.T) {
	tree, specFile, storePath := buildSpecStore(t)

	flat := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report"})
	})
	stored := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report"})
	})
	if stored != flat {
		t.Errorf("-spec-db output differs from -specs output.\nstore:\n%s\nflat:\n%s", stored, flat)
	}
	parallel := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report", "-workers", "2"})
	})
	if parallel != flat {
		t.Errorf("-spec-db -workers 2 output differs from flat -workers 1 output.\nstore:\n%s\nflat:\n%s", parallel, flat)
	}

	// Cold then warm against the same cache directory: the warm grouped
	// run replays from the group memo and must not change a byte.
	cacheDir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		got := captureStdout(t, func() error {
			return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report",
				"-cache-dir", cacheDir})
		})
		if got != flat {
			t.Errorf("%s cached -spec-db output differs from flat output.\ngot:\n%s\nflat:\n%s",
				pass, got, flat)
		}
	}

	sharded := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report",
			"-shards", "2", "-cache-dir", t.TempDir()})
	})
	if sharded != flat {
		t.Errorf("-spec-db -shards 2 output differs from flat output.\nsharded:\n%s\nflat:\n%s",
			sharded, flat)
	}
}

// TestCLISpecDBShardedWithWriterTail is the regression test for one seq
// naming two spec sets. A writer that dies between its write and its
// fsync can leave its whole commit record past the last synced commit,
// which every later open replays; the test stands in for it by committing
// an edit of the spec behind the first report to a copy of the store and
// appending the bytes the copy gained to the store file. A sharded
// `detect -spec-db` must print exactly what the in-process run prints,
// edit included, because the workers run the specs the coordinator's
// read-only open saw, shipped inline in their jobs. And the seq
// `seal specdb -stats` reports read-only must be the seq a read-write
// reopen serves, with the spec set the read-only runs detected with.
func TestCLISpecDBShardedWithWriterTail(t *testing.T) {
	tree, specFile, storePath := buildSpecStore(t)
	flat := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", specFile, "-report"})
	})
	key := firstReportSpecKey(t, flat)

	orig, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	copyPath := filepath.Join(t.TempDir(), "writer.specdb")
	if err := os.WriteFile(copyPath, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := specdb.Open(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	sp, ok, err := st.Current().SpecByKey(key)
	if err != nil || !ok {
		t.Fatalf("spec %q behind the first report: found=%v err=%v", key, ok, err)
	}
	edited := *sp
	edited.OriginPatch += "-edited"
	if created, err := st.UpsertSpec(&edited); err != nil || created {
		t.Fatalf("edit of %q: created=%v err=%v", key, created, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(storePath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(grown[len(orig):]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	inProcess := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report"})
	})
	if !strings.Contains(inProcess, edited.OriginPatch) {
		t.Fatalf("the in-process run did not see the tail record's edit (%s):\n%s", edited.OriginPatch, inProcess)
	}
	sharded := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report",
			"-shards", "2", "-cache-dir", t.TempDir()})
	})
	if sharded != inProcess {
		t.Errorf("-shards 2 output differs from the in-process run over a store with a writer's tail.\nsharded:\n%s\nin-process:\n%s",
			sharded, inProcess)
	}

	stats := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-stats"})
	})
	var seq uint64
	if _, err := fmt.Sscanf(stats[len(storePath):], ": seq %d,", &seq); err != nil {
		t.Fatalf("stats output %q: %v", stats, err)
	}
	rw, err := specdb.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	rwSeq := rw.Current().Seq()
	rwSpecs, err := rw.Current().Specs()
	rw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rwSeq != seq {
		t.Errorf("read-only -stats reports seq %d, a read-write reopen serves seq %d", seq, rwSeq)
	}
	data, err := (&spec.DB{Specs: rwSpecs}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	rwFile := filepath.Join(t.TempDir(), "reopened.json")
	if err := os.WriteFile(rwFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-specs", rwFile, "-report"})
	})
	if reopened != inProcess {
		t.Errorf("the read-write reopen at seq %d serves a spec set other than the one the read-only open detected with.\nreopened:\n%s\nin-process:\n%s",
			seq, reopened, inProcess)
	}
}

// firstReportSpecKey is the spec.Key() of the spec behind the first report
// in a `detect -report` output: its Scope line's scope and its Spec line.
func firstReportSpecKey(t *testing.T, report string) string {
	t.Helper()
	var constraint string
	for _, line := range strings.Split(report, "\n") {
		if c, ok := strings.CutPrefix(line, "Spec     : "); ok && constraint == "" {
			constraint = c
		}
		if sc, ok := strings.CutPrefix(line, "Scope    : "); ok && constraint != "" {
			scope, _, _ := strings.Cut(sc, " (")
			return scope + " | " + constraint
		}
	}
	t.Fatalf("no report in:\n%s", report)
	return ""
}

// TestCLISpecDBDetectWorkersOverlap is the regression test for a
// store-backed detection that ignored -workers: the first two region
// groups stall until their unit deadline, and with -workers 2 the pool
// must hand them to two workers at once. The plan's in-flight stall count
// witnesses the overlap, so the verdict does not depend on timing.
func TestCLISpecDBDetectWorkersOverlap(t *testing.T) {
	tree, specFile, storePath := buildSpecStore(t)
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var db spec.DB
	if err := json.Unmarshal(data, &db); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, g := range detect.ScopeGroups(db.Specs) {
		scopes = append(scopes, db.Specs[g[0]].Scope())
	}
	if len(scopes) < 3 {
		t.Fatalf("corpus has %d region groups; the overlap check needs 3+", len(scopes))
	}
	plan := faultinject.NewPlan().
		Add("detect", scopes[0], faultinject.KindStall).
		Add("detect", scopes[1], faultinject.KindStall)
	faultinject.Set(plan)
	defer faultinject.Reset()
	err = cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-workers", "2", "-timeout", "300ms"})
	var qe quarantineErr
	if !errors.As(err, &qe) || qe.n != 2 {
		t.Fatalf("two stalled groups: %v, want 2 quarantined units", err)
	}
	if got := plan.PeakStalls(); got != 2 {
		t.Fatalf("peak in-flight stalls = %d, want 2: -workers 2 did not run region groups concurrently", got)
	}
}

// TestCLISpecDBModes drives every specdb administration mode end to end:
// re-import dedup, stats, verify, query, and a compaction that must not
// change detection output.
func TestCLISpecDBModes(t *testing.T) {
	tree, specFile, storePath := buildSpecStore(t)

	// A second import of the same flat file is a no-op: first-wins dedup.
	reimport := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-import", specFile})
	})
	var added, skipped int
	if _, err := fmt.Sscanf(reimport, "imported %d specs into", &added); err != nil || added != 0 {
		t.Fatalf("re-import added specs: %q", reimport)
	}
	if _, err := fmt.Sscanf(reimport[strings.Index(reimport, "(")+1:], "%d already present", &skipped); err != nil || skipped == 0 {
		t.Fatalf("re-import reported no existing specs: %q", reimport)
	}

	stats := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-stats"})
	})
	if !strings.Contains(stats, storePath) || !strings.Contains(stats, "keys") {
		t.Fatalf("stats output: %q", stats)
	}

	verify := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-verify"})
	})
	if !strings.HasPrefix(verify, "ok: ") {
		t.Fatalf("verify output: %q", verify)
	}

	// The match-all query lists every imported spec.
	query := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-query", ""})
	})
	if !strings.Contains(query, fmt.Sprintf("%d specifications matched", skipped)) {
		t.Fatalf("match-all query did not report %d specs:\n%s", skipped, query)
	}
	// A malformed query is a usage error, not a store error.
	err := cmdSpecDB([]string{"-db", storePath, "-query", "scope:bad"})
	var ue usageErr
	if !errors.As(err, &ue) {
		t.Fatalf("malformed query: %v, want usage error", err)
	}

	before := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report"})
	})
	compact := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-compact"})
	})
	if !strings.HasPrefix(compact, "compacted ") {
		t.Fatalf("compact output: %q", compact)
	}
	postVerify := captureStdout(t, func() error {
		return cmdSpecDB([]string{"-db", storePath, "-verify"})
	})
	if !strings.HasPrefix(postVerify, "ok: ") {
		t.Fatalf("post-compact verify output: %q", postVerify)
	}
	after := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", tree, "-spec-db", storePath, "-report"})
	})
	if after != before {
		t.Errorf("compaction changed detection output.\nafter:\n%s\nbefore:\n%s", after, before)
	}
}

// TestCLISpecDBVersionSkew pins the version-skew contract at the CLI
// surface: a store written by a different format version — the previous
// format 2, or one from the future — is refused with a clean fatal error
// (exit 1, not a usage error, no panic) that names the skew and the
// re-import, on both the detect and admin paths.
func TestCLISpecDBVersionSkew(t *testing.T) {
	_, _, storePath := buildSpecStore(t)

	image, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	// Set the format version in the header and re-seal its checksum
	// (FNV-64a over the 28 bytes before it), so the file is a structurally
	// valid store of the previous format, then of one from the future.
	for _, version := range []uint32{2, specdb.FormatVersion + 41} {
		data := append([]byte(nil), image...)
		binary.LittleEndian.PutUint32(data[8:12], version)
		h := fnv.New64a()
		h.Write(data[:28])
		binary.LittleEndian.PutUint64(data[28:36], h.Sum64())
		if err := os.WriteFile(storePath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkSpecDBSkew(t, storePath, version)
	}
}

// checkSpecDBSkew requires every store-reading CLI path to refuse the
// store at path, written by format version, with a fatal error that
// names the skew and the re-import.
func checkSpecDBSkew(t *testing.T, storePath string, version uint32) {
	t.Helper()
	for _, tc := range []struct {
		name string
		args func() error
	}{
		{"detect", func() error {
			return cmdDetect([]string{"-target", t.TempDir(), "-spec-db", storePath})
		}},
		{"specdb -verify", func() error {
			return cmdSpecDB([]string{"-db", storePath, "-verify"})
		}},
		{"specdb -stats", func() error {
			return cmdSpecDB([]string{"-db", storePath, "-stats"})
		}},
	} {
		err := tc.args()
		if err == nil {
			t.Fatalf("%s opened a version-skewed store", tc.name)
		}
		if !errors.Is(err, specdb.ErrVersion) {
			t.Errorf("%s: %v, want ErrVersion", tc.name, err)
		}
		for _, frag := range []string{"format version", fmt.Sprintf("store format %d", version), "seal specdb -import"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: format %d error does not name %q: %v", tc.name, version, frag, err)
			}
		}
		var ue usageErr
		if errors.As(err, &ue) {
			t.Errorf("%s: skew reported as usage error (exit 2), want fatal (exit 1): %v", tc.name, err)
		}
	}
}
