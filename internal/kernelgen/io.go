package kernelgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"seal/internal/budget"
	"seal/internal/fsread"
	"seal/internal/patch"
)

// WriteTo materializes the corpus on disk:
//
//	dir/tree/...            the current source tree (with latent bugs)
//	dir/patches/<id>/pre/   pre-patch sources
//	dir/patches/<id>/post/  post-patch sources
//	dir/groundtruth.json    seeded bugs + driver metadata
func (c *Corpus) WriteTo(dir string) error {
	for name, src := range c.Files {
		p := filepath.Join(dir, "tree", filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			return err
		}
	}
	for _, pt := range c.Patches {
		for side, files := range map[string]map[string]string{"pre": pt.Pre, "post": pt.Post} {
			for name, src := range files {
				p := filepath.Join(dir, "patches", pt.ID, side, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
					return err
				}
			}
		}
		meta := map[string]interface{}{"id": pt.ID, "description": pt.Description, "tags": pt.Tags}
		data, _ := json.MarshalIndent(meta, "", "  ")
		pdir := filepath.Join(dir, "patches", pt.ID)
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(pdir, "patch.json"), data, 0o644); err != nil {
			return err
		}
	}
	gt := struct {
		Bugs    []SeededBug  `json:"bugs"`
		Drivers []DriverInfo `json:"drivers"`
	}{c.Bugs, c.Drivers}
	data, err := json.MarshalIndent(gt, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "groundtruth.json"), data, 0o644)
}

// LoadPatches reads a WriteTo layout (dir/<id>/pre/..., dir/<id>/post/...,
// dir/<id>/patch.json) back into patch values, sorted by ID. A side with no
// files, for which WriteTo creates no directory, loads as empty, and so does
// a missing patch.json; a malformed one fails the load. Patch directories
// load on a pool of GOMAXPROCS readers, and the result and the error are
// those of a serial load in ID order: the first failing patch's error,
// naming pre before post before patch.json.
func LoadPatches(dir string) ([]*patch.Patch, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries { // ReadDir sorts by name
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]*patch.Patch, len(ids))
	errs := make([]error, len(ids))
	budget.Each(runtime.GOMAXPROCS(0), len(ids), func(i int) {
		out[i], errs[i] = loadPatch(filepath.Join(dir, ids[i]), ids[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadPatch reads one patch directory: its pre side, then its post side,
// then its patch.json.
func loadPatch(pdir, id string) (*patch.Patch, error) {
	p := &patch.Patch{ID: id, Pre: map[string]string{}, Post: map[string]string{}, Tags: map[string]string{}}
	if err := loadSide(filepath.Join(pdir, "pre"), p.Pre); err != nil {
		return nil, fmt.Errorf("patch %s/pre: %w", id, err)
	}
	if err := loadSide(filepath.Join(pdir, "post"), p.Post); err != nil {
		return nil, fmt.Errorf("patch %s/post: %w", id, err)
	}
	if err := loadMeta(filepath.Join(pdir, "patch.json"), p); err != nil {
		return nil, fmt.Errorf("patch %s: %w", id, err)
	}
	return p, nil
}

// loadSide reads every file under root into files, keyed by slash-separated
// path relative to root. A missing root is an empty side.
func loadSide(root string, files map[string]string) error {
	got, err := fsread.Tree(root, func(string) bool { return true })
	var pe *fs.PathError
	if errors.As(err, &pe) && pe.Op == "lstat" && pe.Path == root && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	for name, src := range got {
		files[name] = src
	}
	return err
}

// loadMeta sets p's description and tags from its patch.json, if any.
func loadMeta(path string, p *patch.Patch) error {
	data, err := fsread.File(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var meta struct {
		Description string            `json:"description"`
		Tags        map[string]string `json:"tags"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return fmt.Errorf("patch.json: %w", err)
	}
	p.Description = meta.Description
	if meta.Tags != nil {
		p.Tags = meta.Tags
	}
	return nil
}
