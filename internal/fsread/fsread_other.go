//go:build !linux

package fsread

import (
	"io/fs"
	"os"
	"path/filepath"
)

// File reads the named file whole: os.ReadFile.
func File(path string) ([]byte, error) { return os.ReadFile(path) }

// Tree reads every kept non-directory entry under root, keyed by its
// slash-separated path relative to root: one filepath.WalkDir that calls
// os.ReadFile on each kept entry and returns the first error. keep is asked
// with each entry's base name, or with root itself when root is not a
// directory (its key is then ".").
func Tree(root string, keep func(name string) bool) (map[string]string, error) {
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
