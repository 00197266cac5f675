package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"seal"
	"seal/internal/serve"
)

// TestCLIServe drives the documented daemon session through setupServe:
// gen a corpus, infer its specs, start the server from flags, and issue
// the infer → detect → edit → detect lifecycle over real HTTP.
func TestCLIServe(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	specFile := filepath.Join(dir, "specs.json")
	if err := cmdGen([]string{"-out", corpusDir}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdInfer([]string{"-patches", filepath.Join(corpusDir, "patches"), "-out", specFile}); err != nil {
		t.Fatalf("infer: %v", err)
	}

	srv, ln, err := setupServe("serve", []string{
		"-target", filepath.Join(corpusDir, "tree"),
		"-specs", specFile,
		"-workers", "2",
		"-cache-dir", filepath.Join(dir, "cache"),
	})
	if err != nil {
		t.Fatalf("setupServe: %v", err)
	}
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	defer hs.Close()

	post := func(path, body string, out any) int {
		t.Helper()
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatalf("POST %s: decode: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var st serve.StatsResponse
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Epoch != 1 || st.Specs == 0 || st.Files == 0 {
		t.Fatalf("initial stats: epoch %d specs %d files %d", st.Epoch, st.Specs, st.Files)
	}

	var det serve.DetectResponse
	if got := post("/detect", `{"report":true}`, &det); got != http.StatusOK {
		t.Fatalf("detect: status %d", got)
	}
	if det.Epoch != 1 || det.Report == "" || det.Manifest == nil {
		t.Fatalf("detect response incomplete: epoch %d report %d bytes manifest %v",
			det.Epoch, len(det.Report), det.Manifest != nil)
	}

	// Touch one file through /edit; detection must follow the new epoch.
	files, err := seal.ReadSourceDir(filepath.Join(corpusDir, "tree"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	var er serve.EditResponse
	body, _ := json.Marshal(serve.EditRequest{Files: map[string]string{names[0]: files[names[0]] + "\n"}})
	if got := post("/edit", string(body), &er); got != http.StatusOK {
		t.Fatalf("edit: status %d", got)
	}
	if er.Epoch != 2 || er.ParsedFiles != 1 {
		t.Fatalf("edit response: epoch %d parsed %d, want 2 / 1", er.Epoch, er.ParsedFiles)
	}
	var det2 serve.DetectResponse
	if got := post("/detect", `{"report":true}`, &det2); got != http.StatusOK {
		t.Fatalf("detect after edit: status %d", got)
	}
	if det2.Epoch != 2 {
		t.Fatalf("detect after edit pinned epoch %d, want 2", det2.Epoch)
	}
	// A whitespace-only edit must not change the findings.
	if det2.Report != det.Report {
		t.Fatalf("whitespace edit changed the report:\n%s\nvs\n%s", det2.Report, det.Report)
	}
}

// TestCLIUnusableCacheDir checks that a -cache-dir that cannot be created
// fails every command at start-up, before any request or analysis: serve
// and work with -specs and with -spec-db, detect and infer with a fatal
// error (exit 1). The cache opens before the inputs are read, so with a
// bad spec file as well the cache's error is the one reported.
func TestCLIUnusableCacheDir(t *testing.T) {
	tree, specFile, storePath := buildSpecStore(t)
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badCache := filepath.Join(blocker, "cache")
	_, openErr := seal.OpenCache(badCache, false, 0)
	if openErr == nil {
		t.Fatal("a cache directory under a regular file opened")
	}
	for _, name := range []string{"serve", "work"} {
		for _, specs := range [][]string{{"-specs", specFile}, {"-spec-db", storePath}} {
			args := append([]string{"-target", tree, "-cache-dir", badCache}, specs...)
			if srv, ln, err := setupServe(name, args); err == nil {
				ln.Close()
				srv.Close()
				t.Errorf("%s %s: started on a cache directory under a regular file", name, specs[0])
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"detect", func() error { return cmdDetect([]string{"-target", tree, "-specs", specFile, "-cache-dir", badCache}) }},
		{"detect, missing spec file", func() error {
			return cmdDetect([]string{"-target", tree, "-specs", filepath.Join(dir, "missing.json"), "-cache-dir", badCache})
		}},
		{"infer", func() error {
			return cmdInfer([]string{"-patches", filepath.Join(filepath.Dir(tree), "patches"), "-out", filepath.Join(dir, "out.json"), "-cache-dir", badCache})
		}},
	} {
		err := tc.run()
		if err == nil || err.Error() != openErr.Error() {
			t.Errorf("%s: error %v, want %q", tc.name, err, openErr)
		}
		var ec exitCoder
		if errors.As(err, &ec) {
			t.Errorf("%s: exit code %d, want a fatal error (exit %d)", tc.name, ec.ExitCode(), exitFatal)
		}
	}
}

// TestCLIServeArgErrors checks flag validation.
func TestCLIServeArgErrors(t *testing.T) {
	if _, _, err := setupServe("serve", []string{}); err == nil {
		t.Error("serve without -target should fail")
	}
	if _, _, err := setupServe("serve", []string{"-target", "/nonexistent-seal-dir"}); err == nil {
		t.Error("serve with a missing target should fail")
	}
}
