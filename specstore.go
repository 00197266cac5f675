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
// Returns (added, skipped).
func ImportSpecStore(path string, db *SpecDB) (added, skipped int, err error) {
	return ImportSpecStoreOptions(path, db, specdb.Options{})
}

// ImportSpecStoreOptions is ImportSpecStore with an explicit store
// configuration: the group-commit policy governs how many imported specs
// ride in each batch before one fsync makes them durable, and the
// compaction threshold arms ratio-triggered background compaction for the
// duration of the import.
func ImportSpecStoreOptions(path string, db *SpecDB, opts specdb.Options) (added, skipped int, err error) {
	st, err := specdb.OpenOptions(path, opts)
	if errors.Is(err, os.ErrNotExist) {
		st, err = specdb.CreateOptions(path, opts)
	}
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	return st.ImportSpecs(db.Specs)
}

// LoadSpecStoreSpecs opens the store at path read-only and materializes
// its full spec list in ordinal (import) order — the same order a flat
// file load produces — along with the snapshot sequence number the list
// was read at.
func LoadSpecStoreSpecs(path string) ([]*Spec, uint64, error) {
	st, err := specdb.OpenReadOnly(path)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	snap := st.Current()
	specs, err := snap.Specs()
	if err != nil {
		return nil, 0, err
	}
	return specs, snap.Seq(), nil
}
