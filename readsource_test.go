package seal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"seal/internal/kernelgen"
)

// serialReadSourceDir is ReadSourceDir as one serial walk that reads each
// file as it meets it: the reference the pooled reader must match, map
// and error alike.
func serialReadSourceDir(root string) (map[string]string, error) {
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .c files under %s", root)
	}
	return files, nil
}

// waitGoroutines waits until at most want goroutines run: a loader's
// readers must be gone once it returns, give or take their last
// instructions.
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

// TestReadSourceDirMatchesSerial runs the pooled tree reader, at 4 readers
// whatever the host's core count, against the serial reference: the same
// map on a kernelgen tree, the same first error with several unreadable
// files, a missing root, an empty root and a root that is itself a .c
// file, and no reader left running.
func TestReadSourceDirMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	if err := kernelgen.Generate(kernelgen.EvalConfig()).WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	tree := filepath.Join(dir, "tree")
	names, err := serialReadSourceDir(tree)
	if err != nil {
		t.Fatal(err)
	}
	// A copy of the tree with dangling .c symlinks at several places in
	// walk order: the first one in walk order is the error.
	broken := filepath.Join(dir, "broken")
	for rel, src := range names {
		writeFile(t, broken, rel, src)
	}
	for _, rel := range []string{"zz/last.c", "aa/first.c", "drivers/mid.c", "drivers/zz.c"} {
		p := filepath.Join(broken, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(filepath.Join(dir, "missing"), p); err != nil {
			t.Skipf("symlinks unavailable: %v", err)
		}
	}
	single := filepath.Join(dir, "one.c")
	if err := os.WriteFile(single, []byte("int f(void) { return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, root string }{
		{"kernelgen tree", tree},
		{"several unreadable files", broken},
		{"missing root", filepath.Join(dir, "no-such-tree")},
		{"empty root", t.TempDir()},
		{"root is a .c file", single},
	}
	for _, tc := range cases {
		want, wantErr := serialReadSourceDir(tc.root)
		before := runtime.NumGoroutine()
		got, err := ReadSourceDir(tc.root)
		waitGoroutines(t, before)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, serial reference %v", tc.name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d files, serial reference %d", tc.name, len(got), len(want))
		}
	}
	if _, err := ReadSourceDir(broken); err == nil || !strings.Contains(err.Error(), "first.c") {
		t.Errorf("broken tree: error %v, want the first unreadable file in walk order", err)
	}
}
