package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"seal"
	"seal/internal/spec"
)

// waitGoroutines waits until no more than want goroutines run, failing
// after a generous deadline: the loader's tree reader must have exited by
// the time loadInputs returns, give or take its last instructions.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines running, want at most %d:\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestCLIInputLoader drives loadInputs through every success and failure
// combination of its two inputs: a spec error is reported before a target
// error, and no goroutine outlives the call.
func TestCLIInputLoader(t *testing.T) {
	dir := t.TempDir()
	tree := filepath.Join(dir, "tree")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tree, "a.c"), []byte("int f(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	specFile := filepath.Join(dir, "specs.json")
	data, err := (&spec.DB{Specs: []*spec.Spec{{ID: "s"}}}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	missingSpecs := filepath.Join(dir, "missing.json")
	_, specErr := os.ReadFile(missingSpecs)
	missingTree := filepath.Join(dir, "no-such-tree")
	_, targetErr := seal.ReadSourceDir(missingTree)
	if specErr == nil || targetErr == nil {
		t.Fatal("a missing input read without error")
	}
	cases := []struct {
		name     string
		target   string
		specFile string
		wantErr  error
	}{
		{"both good", tree, specFile, nil},
		{"no spec source", tree, "", nil},
		{"bad specs", tree, missingSpecs, specErr},
		{"bad target", missingTree, specFile, targetErr},
		{"both bad", missingTree, missingSpecs, specErr},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		files, specs, err := loadInputs(tc.target, tc.specFile, "")
		waitGoroutines(t, before)
		if tc.wantErr != nil {
			if err == nil || err.Error() != tc.wantErr.Error() {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(files) != 1 || (tc.specFile != "" && len(specs) != 1) {
			t.Errorf("%s: %d files and %d specs, want 1 and 1", tc.name, len(files), len(specs))
		}
	}
}

// TestCLIDetectBadInputsSpecErrorFirst checks that detect, in process and
// sharded, reports the spec error when both the spec source and the
// target are bad, and leaves no goroutine behind.
func TestCLIDetectBadInputsSpecErrorFirst(t *testing.T) {
	dir := t.TempDir()
	missingTree := filepath.Join(dir, "no-such-tree")
	emptyTree := t.TempDir()

	missingSpecs := filepath.Join(dir, "missing.json")
	_, readErr := os.ReadFile(missingSpecs)
	malformed := filepath.Join(dir, "malformed.json")
	data := []byte(`{"specs": [`)
	if err := os.WriteFile(malformed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	decodeErr := json.Unmarshal(data, &spec.DB{})
	missingStore := filepath.Join(dir, "missing.specdb")
	_, storeErr := seal.LoadSpecStoreSpecs(missingStore)
	if readErr == nil || decodeErr == nil || storeErr == nil {
		t.Fatalf("bad spec sources loaded: %v, %v, %v", readErr, decodeErr, storeErr)
	}

	cases := []struct {
		name string
		args []string
		want error
	}{
		{"missing spec file", []string{"-target", missingTree, "-specs", missingSpecs}, readErr},
		{"malformed spec file", []string{"-target", emptyTree, "-specs", malformed}, decodeErr},
		{"missing spec store", []string{"-target", missingTree, "-spec-db", missingStore}, storeErr},
		{"sharded, malformed spec file", []string{"-target", missingTree, "-specs", malformed, "-shards", "2"}, decodeErr},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		err := cmdDetect(tc.args)
		waitGoroutines(t, before)
		if err == nil || err.Error() != tc.want.Error() {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCLINullSpecEntry: a spec file whose specs array holds null fails
// cleanly on every path that decodes it — a fatal error (exit 1, not a
// usage error) naming the entry, never a panic.
func TestCLINullSpecEntry(t *testing.T) {
	dir := t.TempDir()
	tree := filepath.Join(dir, "tree")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tree, "a.c"), []byte("int f(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	nullSpecs := filepath.Join(dir, "null.json")
	if err := os.WriteFile(nullSpecs, []byte(`{"specs":[{"id":"s"},null]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"detect -specs", func() error { return cmdDetect([]string{"-target", tree, "-specs", nullSpecs}) }},
		{"specdb -import", func() error {
			return cmdSpecDB([]string{"-db", filepath.Join(dir, "s.specdb"), "-import", nullSpecs})
		}},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), "spec entry 1 is null") {
			t.Errorf("%s: error %v, want one naming spec entry 1", tc.name, err)
		}
		var ec exitCoder
		if errors.As(err, &ec) {
			t.Errorf("%s: exit code %d, want a fatal error (exit %d)", tc.name, ec.ExitCode(), exitFatal)
		}
	}
}
