package main

import (
	"seal"
	"seal/internal/spec"
)

// loadInputs reads what detect and serve analyze: the target tree's .c
// sources and the specs of the spec store specDB or, failing that, of the
// spec file specFile (none when both are empty), the latter through the
// spec replay tier of cf's cache (see readSpecFile), whose figures it
// returns. The tree is read on its own goroutine while the specs load, so
// the two inputs load at the same time, and loadInputs returns only once
// both are done. When both fail, the spec error is the one reported.
func loadInputs(target, specFile, specDB string, cf *cacheFlags) (map[string]string, []*spec.Spec, seal.CacheStats, error) {
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
	var pstats seal.CacheStats
	var specErr error
	switch {
	case specDB != "":
		specs, specErr = seal.LoadSpecStoreSpecs(specDB)
	case specFile != "":
		var db *spec.DB
		if db, pstats, specErr = readSpecFile(specFile, cf); specErr == nil {
			specs = db.Specs
		}
	}
	t := <-read
	if specErr != nil {
		return nil, nil, pstats, specErr
	}
	if t.err != nil {
		return nil, nil, pstats, t.err
	}
	return t.files, specs, pstats, nil
}

// readSpecFile loads a spec database written by `seal infer`. With a
// cache directory in cf (nil means none) a file loaded before is replayed
// from its binary form (seal.ReadSpecFile); the returned figures belong in
// the seal_pcache_* counters of the run that loaded it.
func readSpecFile(path string, cf *cacheFlags) (*spec.DB, seal.CacheStats, error) {
	if cf == nil {
		cf = &cacheFlags{}
	}
	return seal.ReadSpecFile(path, cf.dir, cf.readOnly, cf.maxBytes)
}
