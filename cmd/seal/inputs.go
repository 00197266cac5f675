package main

import (
	"seal"
	"seal/internal/spec"
)

// loadInputs reads what detect and serve analyze: the target tree's .c
// sources and the specs of the spec store specDB or, failing that, of the
// spec file specFile (none when both are empty), the latter through the
// spec replay tier of the process's cache pc (see seal.ReadSpecFile), so
// the lookup counts among pc's figures. The tree is read on its own
// goroutine while the specs load, so the two inputs load at the same time,
// and loadInputs returns only once both are done. When both fail, the spec
// error is the one reported.
func loadInputs(target, specFile, specDB string, pc *seal.Cache) (map[string]string, []*spec.Spec, error) {
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
		if db, specErr = seal.ReadSpecFile(specFile, pc); specErr == nil {
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
