package seal

import (
	"errors"
	"os"

	"seal/internal/specdb"
)

// This file loads and imports the spec store (internal/specdb). A
// store-backed run detects through the same region-group flow as a flat
// spec file (detect.go), so its output is byte-identical to a flat run
// over the same specs — same report, same redacted manifest, same
// redacted metrics.

// ImportSpecStore imports a flat spec database into the store at path,
// creating the store when missing. Import is first-wins by spec key,
// matching SpecDB.Dedup, so re-importing an unchanged corpus is a no-op.
// The import is one commit: it lands whole or not at all. Returns (added,
// skipped).
func ImportSpecStore(path string, db *SpecDB) (added, skipped int, err error) {
	st, err := specdb.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		st, err = specdb.Create(path)
	}
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	return st.ImportSpecs(db.Specs)
}

// LoadSpecStoreSpecs opens the store at path read-only and materializes
// its full spec list in ordinal (import) order — the same order a flat
// file load produces.
func LoadSpecStoreSpecs(path string) ([]*Spec, error) {
	st, err := specdb.OpenReadOnly(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Current().Specs()
}
