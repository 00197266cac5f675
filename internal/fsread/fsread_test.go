package fsread_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	. "seal/internal/fsread"
	"seal/internal/kernelgen"
)

// walkReference is Tree as the standard library spells it: one
// filepath.WalkDir that reads each kept entry with os.ReadFile as it meets
// it and stops at the first error.
func walkReference(root string, keep func(string) bool) (map[string]string, error) {
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if path == root {
			name = root
		}
		if d.IsDir() || !keep(name) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(rel)] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return files, nil
}

func keepAll(string) bool    { return true }
func keepC(name string) bool { return strings.HasSuffix(name, ".c") }
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// openFDs counts the process's open descriptors, or -1 where
// /proc/self/fd does not list them.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// checkPathError fails unless err is nil or a *fs.PathError with want's
// operation and path.
func checkPathError(t *testing.T, name string, err, want error) {
	t.Helper()
	if err == nil {
		return
	}
	var pe, wpe *fs.PathError
	if !errors.As(err, &pe) || !errors.As(want, &wpe) || pe.Op != wpe.Op || pe.Path != wpe.Path {
		t.Errorf("%s: error %#v, reference %#v", name, err, want)
	}
}

func writeFile(t *testing.T, root, rel, data string) {
	t.Helper()
	p := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func symlink(t *testing.T, target, link string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(link), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
}

// TestFileMatchesReadFile: File returns os.ReadFile's bytes and error text
// on a regular file, an empty file, a directory, a dangling symlink and a
// missing path, and leaves no descriptor open.
func TestFileMatchesReadFile(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "regular.c", strings.Repeat("int x;\n", 1000))
	writeFile(t, dir, "empty", "")
	symlink(t, filepath.Join(dir, "nowhere"), filepath.Join(dir, "dangling"))
	fds := openFDs()
	for _, name := range []string{"regular.c", "empty", ".", "dangling", "missing"} {
		path := filepath.Join(dir, name)
		want, wantErr := os.ReadFile(path)
		got, err := File(path)
		if errText(err) != errText(wantErr) {
			t.Errorf("%s: error %q, os.ReadFile %q", name, errText(err), errText(wantErr))
		}
		checkPathError(t, name, err, wantErr)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes, os.ReadFile %d", name, len(got), len(want))
		}
		if n := openFDs(); n != fds {
			t.Errorf("%s: %d descriptors open after File, %d before", name, n, fds)
		}
	}
	if _, err := File(dir); err == nil || !strings.Contains(err.Error(), "read "+dir+": is a directory") {
		t.Errorf("directory: error %v, want a read error", err)
	}
}

// edgeTree writes a tree whose walk order differs from full-path order
// (a, a-b, a.c), with a directory named x.c, a file larger than one read
// buffer, a symlinked directory and empty files, and returns its root.
func edgeTree(t *testing.T) string {
	root := filepath.Join(t.TempDir(), "tree")
	for rel, data := range map[string]string{
		"a/one.c":      "one",
		"a/z.h":        "header",
		"a-b/two.c":    "two",
		"a.c":          "three",
		"x.c/inner.c":  "inner",
		"x.c/deep/d.c": "deep",
		"big/large.c":  strings.Repeat("large\n", 50_000),
		"empty.c":      "",
		"sub/empty/.c": "dot-c",
		"notes.txt":    "text",
	} {
		writeFile(t, root, rel, data)
	}
	if err := os.Mkdir(filepath.Join(root, "hollow"), 0o755); err != nil {
		t.Fatal(err)
	}
	symlink(t, filepath.Join(root, "a"), filepath.Join(root, "linkdir"))
	return root
}

// TestTreeMatchesWalkDir runs Tree against the WalkDir reference, keeping
// every file and keeping .c files: the same map and the same first error,
// as a *fs.PathError with the reference's operation and path, with no
// descriptor left open, on a kernelgen corpus, on edge trees, and on
// broken trees whose failures were made out of walk order.
func TestTreeMatchesWalkDir(t *testing.T) {
	dir := t.TempDir()
	if err := kernelgen.Generate(kernelgen.EvalConfig()).WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	edge := edgeTree(t)

	// Dangling .c symlinks made in reverse walk order: the first in walk
	// order (a/, then a-b/, then a.c) must be the error, not the first in
	// full-path order (a-b/ sorts before a/).
	broken := edgeTree(t)
	for _, rel := range []string{"zz/last.c", "a-b/bad.c", "a/bad.c"} {
		symlink(t, filepath.Join(dir, "missing"), filepath.Join(broken, rel))
	}
	// A symlinked directory with a .c name is read as a file.
	linkC := edgeTree(t)
	symlink(t, filepath.Join(linkC, "a"), filepath.Join(linkC, "a.d.c"))

	single := filepath.Join(dir, "one.c")
	writeFile(t, dir, "one.c", "int f(void) { return 0; }\n")
	danglingRoot := filepath.Join(dir, "dangling.c")
	symlink(t, filepath.Join(dir, "missing"), danglingRoot)
	cases := []struct{ name, root string }{
		{"kernelgen tree", filepath.Join(dir, "tree")},
		{"kernelgen patches", filepath.Join(dir, "patches")},
		{"edge tree", edge},
		{"edge tree, trailing slash", edge + "/"},
		{"edge tree, unclean path", filepath.Join(edge, "a") + "/../."},
		{"broken tree", broken},
		{"symlinked .c directory", linkC},
		{"symlinked directory root", filepath.Join(edge, "linkdir")},
		{"a .c root", single},
		{"a dangling .c root", danglingRoot},
		{"empty root", t.TempDir()},
		{"missing root", filepath.Join(dir, "no-such-tree")},
		{"root below a file", filepath.Join(single, "x")},
	}
	fds := openFDs()
	for _, tc := range cases {
		for _, k := range []struct {
			name string
			keep func(string) bool
		}{{"all", keepAll}, {".c", keepC}} {
			name := tc.name + " (keep " + k.name + ")"
			want, wantErr := walkReference(tc.root, k.keep)
			got, err := Tree(tc.root, k.keep)
			if errText(err) != errText(wantErr) {
				t.Errorf("%s: error %q, WalkDir %q", name, errText(err), errText(wantErr))
			}
			checkPathError(t, name, err, wantErr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d files, WalkDir %d", name, len(got), len(want))
			}
			if n := openFDs(); n != fds {
				t.Errorf("%s: %d descriptors open after Tree, %d before", name, n, fds)
			}
		}
	}
	// The cases above must reach the paths they are named for.
	if _, err := Tree(broken, keepC); err == nil || !strings.HasSuffix(err.Error(), "a/bad.c: no such file or directory") {
		t.Errorf("broken tree: error %v, want a/bad.c first", err)
	}
	if got, _ := Tree(single, keepC); len(got) != 1 || got["."] == "" {
		t.Errorf(".c root: %v, want one file keyed \".\"", got)
	}
	if _, err := Tree(filepath.Join(dir, "no-such-tree"), keepC); err == nil || !strings.HasPrefix(err.Error(), "lstat ") {
		t.Errorf("missing root: error %v, want an lstat error", err)
	}
	if _, err := Tree(linkC, keepC); err == nil || !strings.Contains(err.Error(), "a.d.c: is a directory") {
		t.Errorf("symlinked .c directory: error %v, want a read error", err)
	}
	if got, err := Tree(edge, keepC); err != nil || got["x.c/deep/d.c"] != "deep" || got["sub/empty/.c"] != "dot-c" {
		t.Errorf("edge tree: %v, %v: want x.c entered as a directory", got, err)
	}
}
