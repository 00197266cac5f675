package main

import (
	"os"

	"seal"
	"seal/internal/spec"
)

// loadInputs reads what detect and serve analyze: the target tree's .c
// sources and the specs of the spec store specDB or, failing that, of the
// spec file specFile (none when both are empty). The tree is read on its
// own goroutine while the specs load, so the two inputs load at the same
// time, and loadInputs returns only once both are done. When both fail,
// the spec error is the one reported.
func loadInputs(target, specFile, specDB string) (map[string]string, []*spec.Spec, error) {
	type tree struct {
		files map[string]string
		err   error
	}
	read := make(chan tree, 1)
	go func() {
		files, err := seal.ReadSourceDir(target)
		read <- tree{files, err}
	}()
	var specs []*spec.Spec
	var specErr error
	switch {
	case specDB != "":
		specs, specErr = seal.LoadSpecStoreSpecs(specDB)
	case specFile != "":
		var db *spec.DB
		if db, specErr = readSpecFile(specFile); specErr == nil {
			specs = db.Specs
		}
	}
	t := <-read
	if specErr != nil {
		return nil, nil, specErr
	}
	if t.err != nil {
		return nil, nil, t.err
	}
	return t.files, specs, nil
}

// readSpecFile loads a spec database written by `seal infer`, decoding it
// in one pass: a direct UnmarshalJSON call, where json.Unmarshal would
// first scan the whole file to validate it.
func readSpecFile(path string) (*spec.DB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var db spec.DB
	if err := db.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &db, nil
}
