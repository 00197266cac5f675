package seal

import (
	"sync"

	"seal/internal/cache"
	"seal/internal/detect"
)

// Resident is a snapshot-scoped analysis handle: one loaded target pinned
// to one shared substrate whose PDG subgraphs, region closures, and
// value-flow path caches stay hot across any number of detection runs.
// It is the in-memory tier of the caching design — above the persistent
// disk cache, below the raw pipeline — and the unit a long-running service
// ("seal serve") keeps per published snapshot.
//
// A Resident is safe for any number of concurrent Detect calls; per-run
// observability is carried by the options, never stored on the substrate.
type Resident struct {
	// Target is the parsed, linked program this handle is pinned to.
	Target *Target
	// TargetHash is the content fingerprint of the target's sources — the
	// identity every cache key and request envelope is scoped by.
	TargetHash string

	sh *detect.Shared

	// memo is the group memo: full-fidelity region-group outcomes keyed
	// exactly like the disk cache's TierDetectGroup entries, so a repeated
	// request replays without touching disk or the substrate, and a spec
	// edit replays every group it did not touch. Degraded or quarantined
	// outcomes are never stored.
	memo sync.Map // group key -> *detect.Outcome
}

// NewResident pins a loaded target to a fresh shared substrate.
func NewResident(t *Target) *Resident {
	return &Resident{
		Target:     t,
		TargetHash: cache.FileSetHash(t.Files),
		sh:         detect.NewShared(t.Prog),
	}
}

// NewResidentFiles parses, links, and pins an in-memory source set.
func NewResidentFiles(files map[string]string) (*Resident, error) {
	t, err := LoadFiles(files)
	if err != nil {
		return nil, err
	}
	return NewResident(t), nil
}

// ResidentStats describes what the substrate currently holds in memory.
type ResidentStats = detect.ResidentStats

// Resident reports the substrate's in-memory residency (materialized PDG
// subgraphs, cached regions and shapes, completed path sets).
func (r *Resident) Resident() ResidentStats { return r.sh.Resident() }

// Stats returns the substrate's cumulative instrumentation counters.
func (r *Resident) Stats() DetectStats { return r.sh.Stats() }

// MemoEntries reports how many region-group outcomes the group memo holds.
func (r *Resident) MemoEntries() int {
	n := 0
	r.memo.Range(func(any, any) bool { n++; return true })
	return n
}

// PrimeFromCache warm-starts the substrate's region closures from a
// persistent cache populated by an earlier run over the same target — the
// restart path of a resident service. A missing or foreign cache is a
// no-op (closures are recomputed on demand). maxBytes > 0 bounds the
// cache's on-disk size by LRU eviction.
func (r *Resident) PrimeFromCache(dir string, readOnly bool, maxBytes int64) error {
	pc, err := openCache(dir, readOnly, maxBytes)
	if err != nil {
		return err
	}
	primeRegions(r.sh, pc, r.TargetHash)
	return nil
}

// Detector returns the sequential reference detector bound to this
// resident substrate (see detect.Detector.Detect).
func (r *Resident) Detector() *detect.Detector { return r.sh.Detector() }

// primeRegions seeds a substrate's region closures from an open cache
// populated by an earlier run over the same target.
func primeRegions(sh *detect.Shared, pc *cache.Cache, targetHash string) {
	var snap map[string][]string
	if pc.Get(cache.TierRegions, regionsKey(targetHash), &snap) {
		sh.PrimeRegions(snap, detect.DefaultMaxCalleeDepth)
	}
}

// CarryRegionsFrom transfers still-valid region closures from a
// predecessor Resident over an edited version of the same tree — the
// incremental-recompute path. A closure survives only when it provably
// could not have changed: the global set of defined function names is
// unchanged (a definition appearing or vanishing can re-route
// DefinedCallees anywhere), and no function in the closure is in
// changedFuncs (the functions defined in any edited file). Everything else
// is dropped and recomputed on demand, so a conservative changed set costs
// time, never correctness. Returns (carried, dropped).
func (r *Resident) CarryRegionsFrom(prev *Resident, changedFuncs map[string]bool) (carried, dropped int) {
	if prev == nil {
		return 0, 0
	}
	snap := prev.sh.RegionsSnapshot(detect.DefaultMaxCalleeDepth)
	if !sameFuncNames(prev.Target, r.Target) {
		return 0, len(snap)
	}
	for root, names := range snap {
		for _, n := range names {
			if changedFuncs[n] {
				delete(snap, root)
				dropped++
				break
			}
		}
	}
	r.sh.PrimeRegions(snap, detect.DefaultMaxCalleeDepth)
	return len(snap), dropped
}

// sameFuncNames reports whether two targets define exactly the same set of
// function names.
func sameFuncNames(a, b *Target) bool {
	if len(a.Prog.Funcs) != len(b.Prog.Funcs) {
		return false
	}
	for name := range a.Prog.Funcs {
		if _, ok := b.Prog.Funcs[name]; !ok {
			return false
		}
	}
	return true
}
