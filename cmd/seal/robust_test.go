package main

// Tests for the CLI's robustness surface: SEAL_FAULTS parsing, exit-code
// selection, -fail-fast, -failures-out, and a golden file pinning the
// stdout of a quarantined detection run (the healthy units' reports must be
// exactly the fault-free report minus the quarantined scope).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seal"
	"seal/internal/faultinject"
	"seal/internal/kernelgen"
	"seal/internal/obs"
	"seal/internal/spec"
)

func TestParseFaultSpec(t *testing.T) {
	plan, err := parseFaultSpec("panic@detect:iface:vb2_ops.buf_prepare, stall@infer:patch-0003,alloc-spike@detect:api:kmalloc")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(plan)
	defer faultinject.Reset()
	// The detect unit id contains colons; the first colon after the stage
	// must be the separator.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic fault for colon-bearing unit did not fire")
			}
		}()
		_ = faultinject.Fire(nil, "detect", "iface:vb2_ops.buf_prepare", nil)
	}()
	if err := faultinject.Fire(nil, "detect", "patch-0003", nil); err != nil {
		t.Errorf("stage mismatch fired: %v", err)
	}

	for _, bad := range []string{"panic", "panic@detect", "oops@detect:u", "@detect:u", "panic@:u"} {
		if _, err := parseFaultSpec(bad); err == nil {
			t.Errorf("parseFaultSpec(%q) accepted", bad)
		}
	}
	// Empty entries (trailing commas) are tolerated.
	if _, err := parseFaultSpec("panic@detect:u,"); err != nil {
		t.Errorf("trailing comma rejected: %v", err)
	}
}

func TestQuarantineErrExitCode(t *testing.T) {
	var ec exitCoder
	err := error(quarantineErr{stage: "detect", n: 2})
	if !errors.As(err, &ec) || ec.ExitCode() != exitQuarantine {
		t.Fatalf("quarantineErr exit code = %v", err)
	}
	if !strings.Contains(err.Error(), "2 quarantined") {
		t.Errorf("quarantineErr message = %q", err.Error())
	}
}

// buildCorpus generates the default corpus and an inferred spec database
// once per test that needs them.
func buildCorpus(t *testing.T) (corpusDir, specFile string) {
	t.Helper()
	dir := t.TempDir()
	corpusDir = filepath.Join(dir, "corpus")
	specFile = filepath.Join(dir, "specs.json")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}
	_ = captureStdout(t, func() error {
		return cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile})
	})
	return corpusDir, specFile
}

// firstScope returns the lexically first detection scope of a spec database
// — a deterministic quarantine victim for golden runs.
func firstScope(t *testing.T, specFile string) string {
	t.Helper()
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var db spec.DB
	if err := json.Unmarshal(data, &db); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, s := range db.Specs {
		scopes = append(scopes, s.Scope())
	}
	sort.Strings(scopes)
	if len(scopes) == 0 {
		t.Fatal("spec database is empty")
	}
	return scopes[0]
}

// TestCLIDetectQuarantineGolden pins the stdout of a detection run with one
// injected panic: exit code 3, and the report is the fault-free report
// minus the quarantined scope.
func TestCLIDetectQuarantineGolden(t *testing.T) {
	corpusDir, specFile := buildCorpus(t)
	victim := firstScope(t, specFile)
	failuresOut := filepath.Join(t.TempDir(), "failures.json")

	plan, err := parseFaultSpec("panic@detect:" + victim)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(plan)
	defer faultinject.Reset()

	var runErr error
	out := captureStdout(t, func() error {
		runErr = cmdDetect([]string{
			"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile,
			"-workers", "4", "-failures-out", failuresOut,
		})
		return nil
	})
	var ec exitCoder
	if !errors.As(runErr, &ec) || ec.ExitCode() != exitQuarantine {
		t.Fatalf("quarantined detect returned %v, want exit code 3", runErr)
	}
	checkGolden(t, "detect_quarantine", out)

	// The fault-free run must contain every quarantined-run line plus the
	// victim's: graceful degradation, not divergence.
	faultinject.Reset()
	full := captureStdout(t, func() error {
		return cmdDetect([]string{"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile})
	})
	fullLines := make(map[string]bool)
	for _, l := range strings.Split(full, "\n") {
		fullLines[l] = true
	}
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "---") || strings.Contains(l, "reports over") || l == "" {
			continue
		}
		if !fullLines[l] {
			t.Errorf("quarantined run reported a line the fault-free run does not: %q", l)
		}
	}

	// -failures-out wrote exactly the victim's record.
	data, err := os.ReadFile(failuresOut)
	if err != nil {
		t.Fatal(err)
	}
	var frs []*seal.FailureRecord
	if err := json.Unmarshal(data, &frs); err != nil {
		t.Fatalf("failures-out is not valid JSON: %v\n%s", err, data)
	}
	if len(frs) != 1 || frs[0].Unit != victim || frs[0].Reason != "panic" {
		t.Fatalf("failures-out = %s", data)
	}
}

// TestCLIInferQuarantineExitCodes covers the infer-side codes: a panicking
// patch quarantines (exit 3) by default and aborts fatally (exit 1) under
// -fail-fast.
func TestCLIInferQuarantineExitCodes(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}
	patches, err := kernelgen.LoadPatches(filepath.Join(corpusDir, "patches"))
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) < 2 {
		t.Fatalf("corpus has %d patches", len(patches))
	}
	victim := patches[0].ID
	specFile := filepath.Join(dir, "specs.json")

	faultinject.Set(faultinject.NewPlan().Add("infer", victim, faultinject.KindPanic))
	defer faultinject.Reset()

	var runErr error
	_ = captureStdout(t, func() error {
		runErr = cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile})
		return nil
	})
	var ec exitCoder
	if !errors.As(runErr, &ec) || ec.ExitCode() != exitQuarantine {
		t.Fatalf("quarantined infer returned %v, want exit code 3", runErr)
	}
	if _, err := os.Stat(specFile); err != nil {
		t.Fatalf("quarantined infer did not write the surviving spec DB: %v", err)
	}

	// -fail-fast: the run aborts with a fatal (exit 1) error instead.
	runErr = cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile, "-fail-fast"})
	if runErr == nil {
		t.Fatal("-fail-fast with a panicking patch returned nil")
	}
	if errors.As(runErr, &ec) && ec.ExitCode() != exitFatal {
		t.Fatalf("-fail-fast returned exit code %d, want %d", ec.ExitCode(), exitFatal)
	}
	if !strings.Contains(runErr.Error(), "fail-fast") {
		t.Errorf("-fail-fast error = %q", runErr)
	}
}

// TestCLIDetectTimeoutStall covers the -timeout flag end to end: a stalled
// unit is cut off by the per-unit deadline and quarantined.
func TestCLIDetectTimeoutStall(t *testing.T) {
	corpusDir, specFile := buildCorpus(t)
	victim := firstScope(t, specFile)
	faultinject.Set(faultinject.NewPlan().Add("detect", victim, faultinject.KindStall))
	defer faultinject.Reset()

	var runErr error
	_ = captureStdout(t, func() error {
		runErr = cmdDetect([]string{
			"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile,
			"-workers", "4", "-timeout", "100ms",
		})
		return nil
	})
	var ec exitCoder
	if !errors.As(runErr, &ec) || ec.ExitCode() != exitQuarantine {
		t.Fatalf("stalled detect returned %v, want exit code 3", runErr)
	}
}

// TestCLIDetectAbortSkipsUnits covers a detection run aborted past
// -max-failures: every region group it never started is still accounted
// for, in the manifest's outcomes.skipped and in seal_units_skipped_total,
// as an aborted inference run accounts for its skipped patches.
func TestCLIDetectAbortSkipsUnits(t *testing.T) {
	corpusDir, specFile := buildCorpus(t)
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var db spec.DB
	if err := json.Unmarshal(data, &db); err != nil {
		t.Fatal(err)
	}
	// Region groups in scheduling order: first appearance of each scope.
	var scopes []string
	seen := make(map[string]bool)
	for _, s := range db.Specs {
		if sc := s.Scope(); !seen[sc] {
			seen[sc] = true
			scopes = append(scopes, sc)
		}
	}
	if len(scopes) < 3 {
		t.Fatalf("corpus has %d region groups; the abort needs 3+", len(scopes))
	}
	faultinject.Set(faultinject.NewPlan().
		Add("detect", scopes[0], faultinject.KindPanic).
		Add("detect", scopes[1], faultinject.KindPanic))
	defer faultinject.Reset()

	out := t.TempDir()
	manifest, metrics := filepath.Join(out, "m.json"), filepath.Join(out, "m.prom")
	var runErr error
	_ = captureStdout(t, func() error {
		runErr = cmdDetect([]string{
			"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile,
			"-workers", "1", "-max-failures", "1",
			"-manifest-out", manifest, "-metrics-out", metrics,
		})
		return nil
	})
	if runErr == nil || !strings.Contains(runErr.Error(), "aborted after 2 quarantined units (max 1)") {
		t.Fatalf("detect past -max-failures returned %v", runErr)
	}
	m, err := obs.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	want := len(scopes) - 2
	if m.Outcomes.Quarantined != 2 || m.Outcomes.Skipped != want {
		t.Fatalf("manifest outcomes = %+v, want 2 quarantined and %d skipped", m.Outcomes, want)
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("\nseal_units_skipped_total %d\n", want); !strings.Contains(string(prom), line) {
		t.Errorf("metrics lack %q", strings.TrimSpace(line))
	}
}
