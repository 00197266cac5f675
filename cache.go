package seal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/fsread"
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

// Cache is an open persistent analysis cache: results keyed by source
// bytes, configuration, and seal version, so a warm run over unchanged
// inputs replays them without analyzing anything. Its counters are those
// of every run it served; View gives a handle with counters of its own.
// The nil *Cache is the disabled cache.
type Cache = cache.Cache

// OpenCache opens (creating if needed) the persistent analysis cache under
// dir. readOnly serves hits but never writes (shared or archived caches);
// maxBytes > 0 bounds the cache's on-disk size by LRU eviction. An empty
// dir is the disabled cache (nil, on which every operation is a no-op).
func OpenCache(dir string, readOnly bool, maxBytes int64) (*Cache, error) {
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

// inferCacheEntry is one patch's specs, relation statistics and solver
// work. Its binary form, the TierInfer payload, is the specs' (see
// spec.DB.MarshalBinary), then the 10 Stats fields and Solver.Checks as
// varints: the memo hit/miss split depends on the process-global memo.
type inferCacheEntry struct {
	DB     SpecDB
	Stats  infer.Stats
	Solver solver.Tally
}

// counters lists the entry's stored fields in encoding order.
func (e *inferCacheEntry) counters() ([8]*int, [3]*int64) {
	s := &e.Stats
	return [...]*int{&s.Criteria, &s.PrePaths, &s.PostPaths, &s.PMinus, &s.PPlus, &s.PPsi, &s.POmega, &s.Relations},
		[...]*int64{&s.Truncations, &s.BudgetTruncations, &e.Solver.Checks}
}

// MarshalBinary encodes the entry.
func (e *inferCacheEntry) MarshalBinary() ([]byte, error) {
	b, err := e.DB.MarshalBinary()
	if err != nil {
		return nil, err
	}
	ints, int64s := e.counters()
	for _, c := range ints {
		b = binary.AppendVarint(b, int64(*c))
	}
	for _, c := range int64s {
		b = binary.AppendVarint(b, *c)
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary's output into e, replacing its
// contents; a short or overlong input is an error.
func (e *inferCacheEntry) UnmarshalBinary(data []byte) error {
	db, n, err := spec.ReadBinary(data)
	if err != nil {
		return err
	}
	out := inferCacheEntry{DB: *db}
	ints, int64s := out.counters()
	var vals [len(ints) + len(int64s)]int64
	rest := data[n:]
	for i := range vals {
		v, k := binary.Varint(rest)
		if k <= 0 {
			return errInferEntry
		}
		vals[i], rest = v, rest[k:]
	}
	if len(rest) != 0 {
		return errInferEntry
	}
	for i, c := range ints {
		*c = int(vals[i])
	}
	for i, c := range int64s {
		*c = vals[len(ints)+i]
	}
	*e = out
	return nil
}

var errInferEntry = errors.New("malformed infer cache entry")

// specsKey is the TierSpecs fingerprint chain: schema version (inside
// cache.Key) → the SHA-256 of a spec database file's bytes. The bytes are
// the decode's whole input, so no analysis version or config takes part;
// the binary form's layout is covered by cache.SchemaVersion.
func specsKey(data []byte) string {
	sum := sha256.Sum256(data)
	return cache.Key("tier:"+cache.TierSpecs, "json:"+hex.EncodeToString(sum[:]))
}

// ReadSpecFile loads a spec database file written by `seal infer`. With a
// cache c it looks the file's bytes up in the TierSpecs tier: a verified
// hit decodes the stored binary form (spec.DB.UnmarshalBinary), and a miss
// decodes the JSON and stores its binary form for the next load. The
// lookup counts in c's counters, so a run that passes its own handle
// reports it among its figures. A file that fails to decode is never
// stored, so the error is the one an uncached load returns, and a decoded
// database is the same value either way.
func ReadSpecFile(path string, c *Cache) (*SpecDB, error) {
	data, err := fsread.File(path)
	if err != nil {
		return nil, err
	}
	var key string
	if c.Enabled() {
		key = specsKey(data)
	}
	db := new(SpecDB)
	if !c.Get(cache.TierSpecs, key, db) {
		// A direct UnmarshalJSON call decodes in one pass, where
		// json.Unmarshal would first scan the whole file to validate it.
		if err := db.UnmarshalJSON(data); err != nil {
			return nil, err
		}
		c.Put(cache.TierSpecs, key, db)
	}
	return db, nil
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
// before any parsing happens. Names are slash-separated paths relative to
// root ("." when root is itself a .c file). The tree is read in one serial
// pass (fsread.Tree); the map and the error are those of a filepath.WalkDir
// that reads each file as it meets it: the first failure in walk order,
// whether a read or the walk itself, is the one returned.
func ReadSourceDir(root string) (map[string]string, error) {
	files, err := fsread.Tree(root, func(name string) bool { return strings.HasSuffix(name, ".c") })
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .c files under %s", root)
	}
	return files, nil
}
