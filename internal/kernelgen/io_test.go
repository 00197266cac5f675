package kernelgen

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"seal/internal/patch"
)

// TestPatchDirRoundTrip writes a corpus with WriteTo and checks that
// LoadPatches reads back exactly Corpus.Patches, including patches with
// an empty side (for which WriteTo creates no directory).
func TestPatchDirRoundTrip(t *testing.T) {
	c := Generate(DefaultConfig())
	base := c.Patches[0]
	c.Patches = append(c.Patches,
		&patch.Patch{ID: "zz-new-file", Description: "adds <a> file & more", Post: base.Post, Tags: map[string]string{"family": "x"}},
		&patch.Patch{ID: "zz-removed-file", Pre: base.Pre},
		&patch.Patch{ID: "zz-empty"},
	)
	dir := t.TempDir()
	if err := c.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPatches(filepath.Join(dir, "patches"))
	if err != nil {
		t.Fatal(err)
	}
	want := append([]*patch.Patch(nil), c.Patches...)
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	if len(got) != len(want) {
		t.Fatalf("loaded %d patches, wrote %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		// maps.Equal holds a nil map equal to an empty one.
		if g.ID != w.ID || g.Description != w.Description ||
			!maps.Equal(g.Pre, w.Pre) || !maps.Equal(g.Post, w.Post) || !maps.Equal(g.Tags, w.Tags) {
			t.Fatalf("patch %d: loaded %+v, wrote %+v", i, g, w)
		}
	}
}

// TestLoadPatchesRejectsMalformedMeta checks that a patch.json that does
// not parse fails the load, naming the patch, rather than dropping the
// patch's tags.
func TestLoadPatchesRejectsMalformedMeta(t *testing.T) {
	c := &Corpus{Patches: []*patch.Patch{{ID: "p1", Pre: map[string]string{"a.c": "int x;"}, Post: map[string]string{"a.c": "int y;"}, Tags: map[string]string{"family": "npd"}}}}
	dir := t.TempDir()
	if err := c.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, "patches", "p1", "patch.json")
	if err := os.WriteFile(meta, []byte(`{"tags": {"family": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPatches(filepath.Join(dir, "patches")); err == nil || !strings.Contains(err.Error(), "patch p1: patch.json") {
		t.Fatalf("malformed patch.json loaded: err %v", err)
	}
}

// serialLoadPatches is LoadPatches as one serial loop over the patch
// directories in ID order, each read pre, post, then patch.json: the
// reference the pooled loader must match, patches and error alike.
func serialLoadPatches(dir string) ([]*patch.Patch, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*patch.Patch
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		p := &patch.Patch{ID: id, Pre: map[string]string{}, Post: map[string]string{}, Tags: map[string]string{}}
		for _, side := range []struct {
			name  string
			files map[string]string
		}{{"pre", p.Pre}, {"post", p.Post}} {
			if err := loadSide(filepath.Join(dir, id, side.name), side.files); err != nil {
				return nil, fmt.Errorf("patch %s/%s: %w", id, side.name, err)
			}
		}
		if err := loadMeta(filepath.Join(dir, id, "patch.json"), p); err != nil {
			return nil, fmt.Errorf("patch %s: %w", id, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// breakFile replaces dir/rel with a dangling symlink, which WalkDir lists
// and ReadFile fails on (file modes do not stop a root reader).
func breakFile(t *testing.T, dir, rel string) {
	t.Helper()
	p := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	os.Remove(p)
	if err := os.Symlink(filepath.Join(dir, "missing-target"), p); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
}

// waitGoroutines waits until at most want goroutines run: the loader's
// readers must be gone once it returns, give or take their last
// instructions.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want at most %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestLoadPatchesMatchesSerial runs the pooled patch loader, at 4 readers
// whatever the host's core count, against the serial reference: the same
// patches from a kernelgen corpus, the same first error with several
// unreadable files, a missing root and an empty root, and no reader left
// running.
func TestLoadPatchesMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	c := Generate(EvalConfig())
	if err := c.WriteTo(filepath.Join(dir, "good")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTo(filepath.Join(dir, "broken")); err != nil {
		t.Fatal(err)
	}
	broken := filepath.Join(dir, "broken", "patches")
	ids := make([]string, len(c.Patches))
	for i, p := range c.Patches {
		ids[i] = p.ID
	}
	sort.Strings(ids)
	// Unreadable files in several patches, the last ones in ID order
	// broken first, so only an ID-ordered error can name the earliest.
	for _, k := range []int{len(ids) - 1, len(ids) / 2, len(ids) / 3} {
		breakFile(t, filepath.Join(broken, ids[k], "post"), "zz.c")
		breakFile(t, filepath.Join(broken, ids[k], "pre"), "zz.c")
	}
	cases := []struct{ name, root string }{
		{"kernelgen corpus", filepath.Join(dir, "good", "patches")},
		{"several unreadable files", broken},
		{"missing root", filepath.Join(dir, "no-such-dir")},
		{"empty root", t.TempDir()},
	}
	for _, tc := range cases {
		want, wantErr := serialLoadPatches(tc.root)
		before := runtime.NumGoroutine()
		got, err := LoadPatches(tc.root)
		waitGoroutines(t, before)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, serial reference %v", tc.name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: loaded %d patches, serial reference %d", tc.name, len(got), len(want))
		}
	}
	if _, err := LoadPatches(broken); err == nil || !strings.Contains(err.Error(), "patch "+ids[len(ids)/3]+"/pre") {
		t.Errorf("broken corpus: error %v, want the pre side of %s", err, ids[len(ids)/3])
	}
}

// TestLoadPatchesNamesPreFirst breaks both sides of one patch: the error
// must name pre every time (the sides were once read in map order, so
// which one it named was random).
func TestLoadPatchesNamesPreFirst(t *testing.T) {
	c := &Corpus{Patches: []*patch.Patch{{ID: "p1", Pre: map[string]string{"a.c": "int x;"}, Post: map[string]string{"a.c": "int y;"}}}}
	dir := t.TempDir()
	if err := c.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	for _, side := range []string{"pre", "post"} {
		breakFile(t, filepath.Join(dir, "patches", "p1", side), "a.c")
	}
	for i := 0; i < 50; i++ {
		if _, err := LoadPatches(filepath.Join(dir, "patches")); err == nil || !strings.HasPrefix(err.Error(), "patch p1/pre: ") {
			t.Fatalf("load %d: error %v, want one naming p1/pre", i, err)
		}
	}
}

// BenchmarkLoadPatches loads the patches of sealbench's warm-batch corpus
// (the evaluation config at 10 instances, seed 1: 105 patches) serially
// and on the reader pool.
func BenchmarkLoadPatches(b *testing.B) {
	cfg := EvalConfig()
	cfg.Instances, cfg.Seed = 10, 1
	dir := b.TempDir()
	if err := Generate(cfg).WriteTo(dir); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		load func(string) ([]*patch.Patch, error)
	}{{"serial", serialLoadPatches}, {"pooled", LoadPatches}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bc.load(filepath.Join(dir, "patches")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
