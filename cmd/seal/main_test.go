package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seal/internal/spec"
)

// TestCLIWorkflow drives the documented gen → infer → detect session
// against a temporary directory.
func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")

	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := os.Stat(filepath.Join(corpusDir, "groundtruth.json")); err != nil {
		t.Fatalf("ground truth missing: %v", err)
	}

	if err := cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile, "-workers", "2"}); err != nil {
		t.Fatalf("infer: %v", err)
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var db spec.DB
	if err := json.Unmarshal(data, &db); err != nil {
		t.Fatal(err)
	}
	if len(db.Specs) == 0 {
		t.Fatal("empty spec database")
	}

	if err := cmdDetect([]string{"-target", filepath.Join(corpusDir, "tree"), "-specs", specFile}); err != nil {
		t.Fatalf("detect: %v", err)
	}
}

// TestCLIInferAppend exercises the incremental-database workflow.
func TestCLIInferAppend(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	if err := cmdGen([]string{"-out", corpusDir, "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	patches := filepath.Join(corpusDir, "patches")
	if err := cmdInfer([]string{"-patches", patches, "-out", specFile}); err != nil {
		t.Fatal(err)
	}
	var before spec.DB
	data, _ := os.ReadFile(specFile)
	if err := json.Unmarshal(data, &before); err != nil {
		t.Fatal(err)
	}
	// Re-running with -append over the same patches must not grow the DB
	// (full dedup).
	if err := cmdInfer([]string{"-patches", patches, "-out", specFile, "-append", specFile}); err != nil {
		t.Fatal(err)
	}
	var after spec.DB
	data, _ = os.ReadFile(specFile)
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Specs) != len(before.Specs) {
		t.Fatalf("append over identical patches grew DB: %d -> %d", len(before.Specs), len(after.Specs))
	}
}

func TestCLIArgErrors(t *testing.T) {
	if err := cmdGen([]string{}); err == nil {
		t.Error("gen without -out should fail")
	}
	if err := cmdInfer([]string{}); err == nil {
		t.Error("infer without flags should fail")
	}
	if err := cmdDetect([]string{}); err == nil {
		t.Error("detect without flags should fail")
	}
}

// TestCLIDetectEmptyTargetError pins the error text main prints after its
// own "seal:" prefix: a target without sources is reported once, not as
// "seal: seal: no .c files ...".
func TestCLIDetectEmptyTargetError(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "specs.json")
	if err := os.WriteFile(specFile, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := cmdDetect([]string{"-target", t.TempDir(), "-specs", specFile})
	if err == nil {
		t.Fatal("detect over an empty target succeeded")
	}
	if msg := err.Error(); strings.HasPrefix(msg, "seal:") || !strings.Contains(msg, "no .c files") {
		t.Fatalf("error %q: want the bare \"no .c files\" message, without a seal: prefix", msg)
	}
}

func TestCLISpecs(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSpecs([]string{"-file", specFile}); err != nil {
		t.Fatalf("specs: %v", err)
	}
	if err := cmdSpecs([]string{}); err == nil {
		t.Error("specs without -file should fail")
	}
}
