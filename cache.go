package seal

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/infer"
	"seal/internal/solver"
	"seal/internal/spec"
)

// Version identifies the analysis semantics baked into every persistent
// cache fingerprint. cache.SchemaVersion covers the on-disk entry shape;
// this covers the analysis itself. Bump it whenever inference or detection
// can produce different results for the same inputs (new relation kinds,
// changed path classification, different dedup): old entries become
// unreachable and every run recomputes.
const Version = "0.5"

// CacheStats is a snapshot of the persistent analysis cache's counters:
// hits, misses, writes, corrupt entries degraded to misses, bytes moved,
// and results deliberately not written (degraded/partial).
type CacheStats = cache.Stats

// ClearCache removes every object the persistent analysis cache owns under
// dir — only the cache's own subtree, never other files sharing the
// directory. Missing directories are fine.
func ClearCache(dir string) error { return cache.Clear(dir) }

// openCache opens the configured cache; an empty dir is the disabled cache
// (nil, on which every operation is a no-op). maxBytes > 0 bounds the
// cache's on-disk size by LRU eviction.
func openCache(dir string, readOnly bool, maxBytes int64) (*cache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	return cache.OpenLimited(dir, readOnly, maxBytes)
}

// inferConfigPart renders the inference knobs that change results for
// identical sources. Dynamic budget limits (deadline, steps, memory) are
// deliberately excluded: a result is only ever cached when it completed
// un-degraded, and an un-degraded result is budget-invariant. The
// deterministic caps (MaxPaths, MaxDepth) truncate silently, so they are
// part of the key.
func inferConfigPart(opts Options) string {
	return fmt.Sprintf("cfg:validate=%t:maxpaths=%d:maxdepth=%d",
		opts.Validate, opts.Limits.MaxPaths, opts.Limits.MaxDepth)
}

// inferPatchKey is the TierInfer fingerprint chain: schema version (inside
// cache.Key) → seal analysis version → config → patch identity → source
// bytes of both patch sides.
func inferPatchKey(p *Patch, opts Options) string {
	return cache.Key(
		"tier:"+cache.TierInfer,
		"seal:"+Version,
		inferConfigPart(opts),
		"patch:"+p.ID,
		"pre:"+cache.FileSetHash(p.Pre),
		"post:"+cache.FileSetHash(p.Post),
	)
}

// inferCacheEntry is the TierInfer payload: one patch's validated specs
// (conditions in tree form via SpecDB's JSON round trip), its relation
// statistics, and the solver work computing it took, which a replaying run
// adds to its own figures.
type inferCacheEntry struct {
	DB     SpecDB       `json:"db"`
	Stats  infer.Stats  `json:"stats"`
	Solver solver.Tally `json:"solver"`
}

// UnmarshalJSON decodes the entry in one json.Unmarshal pass: the nested
// DB decodes as spec.DBFields rather than through SpecDB's own codec,
// which would scan its bytes again.
func (e *inferCacheEntry) UnmarshalJSON(data []byte) error {
	var w struct {
		DB     spec.DBFields `json:"db"`
		Stats  infer.Stats   `json:"stats"`
		Solver solver.Tally  `json:"solver"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	db, err := w.DB.DB()
	if err != nil {
		return err
	}
	*e = inferCacheEntry{DB: *db, Stats: w.Stats, Solver: w.Solver}
	return nil
}

// detectConfigPart renders the detection knobs that change results for
// identical sources; same exclusion rule as inferConfigPart.
func detectConfigPart(limits Limits) string {
	return fmt.Sprintf("cfg:maxpaths=%d:maxdepth=%d:calleedepth=%d",
		limits.MaxPaths, limits.MaxDepth, detect.DefaultMaxCalleeDepth)
}

// SpecSetHash fingerprints a spec list in order, conditions included — the
// spec-side identity in region-group cache keys and serve request envelopes.
func SpecSetHash(specs []*Spec) string {
	return (&SpecDB{Specs: specs}).Hash()
}

// TargetHash fingerprints an in-memory source set — the target-side
// identity in region-group cache keys and serve request envelopes.
func TargetHash(files map[string]string) string { return cache.FileSetHash(files) }

// ReadSourceDir reads every .c file under root (recursively) into a
// name → source map, the raw-bytes form a cached detection run fingerprints
// before any parsing happens.
func ReadSourceDir(root string) (map[string]string, error) {
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		files[rel] = string(data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .c files under %s", root)
	}
	return files, nil
}
