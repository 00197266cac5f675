package kernelgen

import (
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

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
