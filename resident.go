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

	// memo is the group memo: one full-fidelity outcome per region-group
	// scope, under the group key the disk cache's TierDetectGroup entry
	// has, so a repeated request replays without touching disk or the
	// substrate, and a spec edit replays every group it did not touch. A
	// computed group replaces its scope's entry, so the memo stays as
	// large as the group count however many edits arrive. Degraded or
	// quarantined outcomes are never stored.
	memo sync.Map // scope -> memoEntry

	// stats is the sum of every computed group's Outcome.Stats: the
	// substrate work this resident's detections caused (replayed groups
	// add nothing).
	statsMu sync.Mutex
	stats   DetectStats
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

// Stats returns the substrate work of every group computed on this
// resident so far.
func (r *Resident) Stats() DetectStats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

// addStats charges one computed group's work to the resident's total.
func (r *Resident) addStats(st DetectStats) {
	r.statsMu.Lock()
	r.stats = r.stats.Merge(st)
	r.statsMu.Unlock()
}

// MemoEntries reports how many region-group outcomes the group memo holds.
func (r *Resident) MemoEntries() int {
	n := 0
	r.memo.Range(func(any, any) bool { n++; return true })
	return n
}

// Detector returns the sequential reference detector bound to this
// resident substrate (see detect.Detector.Detect).
func (r *Resident) Detector() *detect.Detector { return r.sh.Detector() }
