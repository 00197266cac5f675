package detect

import (
	"sync"

	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/progindex"
	"seal/internal/spec"
	"seal/internal/vfp"
)

// Shared is the concurrent analysis substrate detection workers share: one
// demand-driven PDG, one program-wide index, one region-closure cache, and
// one single-flight value-flow path cache. Every structure is either
// immutable (the index), internally synchronized (the graph), or guarded
// here; a Shared may back any number of Detectors across goroutines.
type Shared struct {
	G   *pdg.Graph
	Idx *progindex.Index

	regionMu sync.Mutex
	regions  map[*ir.Func]*regionCtx

	pathShards [numPathShards]pathShard

	// Canonical-shape reuse (canon.go): interned region shapes, completed
	// path sets keyed up to region isomorphism, and per-function statement
	// position maps for translation.
	shapeMu sync.Mutex
	shapes  map[string]*shapeInfo
	// canon is the reused shape serializer, guarded by regionMu.
	canon canonWriter

	canonMu    sync.Mutex
	canonPaths map[canonPathKey]*canonEntry

	stmtMu      sync.Mutex
	stmtPos     map[*ir.Stmt]int
	stmtIndexed map[*ir.Func]bool
}

const numPathShards = 64

type pathShard struct {
	mu sync.Mutex
	m  map[pathKey]*pathEntry
}

// pathKey identifies one memoized PathsFrom computation: the source
// statement inside one region closure. Keying by region keeps results
// independent of which other regions a shared graph has materialized.
type pathKey struct {
	src  *ir.Stmt
	root *ir.Func
}

// pathEntry is a single-flight slot: the first claimant computes, everyone
// else waits on done.
type pathEntry struct {
	done  chan struct{}
	paths []*vfp.Path
	// panicVal records a panic that aborted the computation; written
	// before done is closed. Waiters re-panic into their own unit's
	// containment instead of deadlocking on a never-closed channel.
	panicVal any
	// volatile marks a result truncated by the computing unit's dynamic
	// budget (steps/memory/deadline). Such results are unit-specific and
	// must not be served to other units: the computing worker removes the
	// entry and keeps the partial result private; waiters recompute.
	volatile bool
}

// regionCtx is the materialized closure of one detection region: the root
// function plus its defined callees to DefaultMaxCalleeDepth, as both an
// ordered list and a membership set.
type regionCtx struct {
	root  *ir.Func
	funcs []*ir.Func
	set   map[*ir.Func]bool
	// idx is each closure function's position in funcs (the canonical
	// function numbering of the region's shape).
	idx map[*ir.Func]int
	// shape is the interned canonical shape (canon.go); regions sharing a
	// shape pointer are isomorphic up to renaming.
	shape *shapeInfo
}

// Stats are detection's instrumentation counters: the work a unit's own
// detectors caused, charged where it happens (the counting handles on the
// graph and index, and pathsFor), so a run's figures are the Merge of its
// units' and nothing counts the substrate as a whole. They count only work
// done in the run: how much a unit does depends on what the substrate
// already held, so no cache entry or memo value stores them, and a replayed
// group adds nothing.
type Stats struct {
	// EnsureCalls / EnsureBuilds mirror pdg.Stats: how often a function
	// subgraph was requested vs actually constructed.
	EnsureCalls  int64
	EnsureBuilds int64
	// PathCacheHits / PathCacheMisses count shared path-cache lookups;
	// a miss is the single computation of one (source, region) slot.
	PathCacheHits   int64
	PathCacheMisses int64
	// IndexLookups counts program-index queries served.
	IndexLookups int64
	// PathEnumerations counts slicer path enumerations started (a cache
	// hit avoids one; Truncations counts the subset cut short).
	PathEnumerations int64
	// PDGBuildNanos is the wall time spent inside actual PDG subgraph
	// builds, mirrored from pdg.Stats.
	PDGBuildNanos int64
	// Truncations counts value-flow enumerations cut short by a path or
	// depth cap or by a unit budget (never silent: each is also marked on
	// the affected paths).
	Truncations int64
	// RetriedUnits counts the units of a budgeted run (RunGroups) that
	// were re-attempted with a halved budget. Quarantined and degraded
	// units are the lengths of Result.Failures and Result.Degraded.
	RetriedUnits int64
}

// PathHitRate returns the fraction of path lookups served from cache.
// Guarded: a run with zero lookups (empty spec set, every unit quarantined
// before its first lookup, or a freshly merged zero Stats) returns 0, not
// NaN.
func (s Stats) PathHitRate() float64 {
	total := s.PathCacheHits + s.PathCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.PathCacheHits) / float64(total)
}

// Merge returns the field-wise sum of two stats snapshots, for folding
// per-group outcomes into a run's figures or aggregating across runs.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		EnsureCalls:      s.EnsureCalls + o.EnsureCalls,
		EnsureBuilds:     s.EnsureBuilds + o.EnsureBuilds,
		PathCacheHits:    s.PathCacheHits + o.PathCacheHits,
		PathCacheMisses:  s.PathCacheMisses + o.PathCacheMisses,
		IndexLookups:     s.IndexLookups + o.IndexLookups,
		PathEnumerations: s.PathEnumerations + o.PathEnumerations,
		PDGBuildNanos:    s.PDGBuildNanos + o.PDGBuildNanos,
		Truncations:      s.Truncations + o.Truncations,
		RetriedUnits:     s.RetriedUnits + o.RetriedUnits,
	}
}

// NewShared builds the substrate for a target program.
func NewShared(prog *ir.Program) *Shared {
	sh := &Shared{
		G:           pdg.New(prog),
		Idx:         progindex.Build(prog),
		regions:     make(map[*ir.Func]*regionCtx),
		shapes:      make(map[string]*shapeInfo),
		canonPaths:  make(map[canonPathKey]*canonEntry),
		stmtPos:     make(map[*ir.Stmt]int),
		stmtIndexed: make(map[*ir.Func]bool),
	}
	for i := range sh.pathShards {
		sh.pathShards[i].m = make(map[pathKey]*pathEntry)
	}
	return sh
}

// ResidentStats describes what a substrate currently holds in memory — the
// figures a long-running service ("seal serve") reports so operators can
// see how warm the resident snapshot is.
type ResidentStats struct {
	// Funcs is the number of functions in the underlying program.
	Funcs int `json:"funcs"`
	// PDGFuncs is the number of function PDG subgraphs materialized.
	PDGFuncs int `json:"pdg_funcs"`
	// Regions is the number of region closures cached.
	Regions int `json:"regions"`
	// Shapes is the number of interned canonical region shapes.
	Shapes int `json:"shapes"`
	// PathEntries is the number of completed value-flow path sets held by
	// the sharded single-flight cache.
	PathEntries int `json:"path_entries"`
}

// Resident snapshots the substrate's in-memory residency.
func (sh *Shared) Resident() ResidentStats {
	rs := ResidentStats{
		Funcs:    len(sh.G.Prog.FuncList),
		PDGFuncs: sh.G.ResidentFuncs(),
	}
	sh.regionMu.Lock()
	rs.Regions = len(sh.regions)
	sh.regionMu.Unlock()
	sh.shapeMu.Lock()
	rs.Shapes = len(sh.shapes)
	sh.shapeMu.Unlock()
	for i := range sh.pathShards {
		shard := &sh.pathShards[i]
		shard.mu.Lock()
		for _, e := range shard.m {
			select {
			case <-e.done:
				rs.PathEntries++
			default:
			}
		}
		shard.mu.Unlock()
	}
	return rs
}

// Detector returns a new detector bound to the substrate. Each concurrent
// worker needs its own (a Detector carries per-region scratch state); any
// number of them may run at once over one Shared. The detector reaches the
// graph and the index through counting handles, so its Work is exactly the
// substrate work it caused, whoever else runs alongside.
func (sh *Shared) Detector() *Detector {
	d := &Detector{sh: sh}
	d.G = sh.G.Counting(&d.pdgWork)
	d.idx = sh.Idx.Counting(&d.lookups)
	d.sl = vfp.NewSlicer(d.G)
	d.ab = infer.NewAbstracter(d.G)
	return d
}

// region returns the cached closure of root, computing it on first use via
// the program index (queried through ix, the caller's counting handle).
func (sh *Shared) region(root *ir.Func, ix *progindex.Index) *regionCtx {
	sh.regionMu.Lock()
	defer sh.regionMu.Unlock()
	if rc, ok := sh.regions[root]; ok {
		return rc
	}
	seen := map[*ir.Func]bool{root: true}
	frontier := []*ir.Func{root}
	out := []*ir.Func{root}
	for i := 0; i < DefaultMaxCalleeDepth && len(frontier) > 0; i++ {
		var next []*ir.Func
		for _, f := range frontier {
			for _, callee := range ix.Func(f).DefinedCallees {
				if !seen[callee] {
					seen[callee] = true
					next = append(next, callee)
					out = append(out, callee)
				}
			}
		}
		frontier = next
	}
	idx := make(map[*ir.Func]int, len(out))
	for i, f := range out {
		idx[f] = i
	}
	rc := &regionCtx{root: root, funcs: out, set: seen, idx: idx}
	rc.shape = sh.shapeOf(rc)
	sh.regions[root] = rc
	return rc
}

// pathsFor returns the value-flow paths from src confined to rc, computing
// them at most once per (source, region) across all workers, with d's
// slicer (already scoped to rc). Hits and misses are charged to d.
//
// Fault isolation: a panic during the computation is recorded on the entry
// before its done channel closes, and every waiter re-panics with it — each
// inside its own unit's containment — so one crashing enumeration can
// quarantine the units that need it but never deadlock the queue. A result
// truncated by the computing unit's dynamic budget is never published (the
// entry is removed; waiters loop and recompute with their own budget), so a
// starved unit cannot silently degrade its neighbors.
func (sh *Shared) pathsFor(src *ir.Stmt, rc *regionCtx, d *Detector) []*vfp.Path {
	sl := d.sl
	key := pathKey{src: src, root: rc.root}
	shard := &sh.pathShards[uint(src.ID)%numPathShards]

	for {
		shard.mu.Lock()
		if e, ok := shard.m[key]; ok {
			shard.mu.Unlock()
			<-e.done
			if e.panicVal != nil {
				panic(e.panicVal)
			}
			if e.volatile {
				continue // computed under an exhausted budget; recompute
			}
			d.pathHits++
			return e.paths
		}
		// Exact miss: an isomorphic sibling region (same canonical shape,
		// canon.go) may have computed this source's paths one renaming
		// away. Translate them in and pin the result under our exact key
		// so later lookups are direct.
		if ps, ok := sh.canonTranslate(src, rc); ok {
			e := &pathEntry{done: make(chan struct{}), paths: ps}
			close(e.done)
			shard.m[key] = e
			shard.mu.Unlock()
			d.pathHits++
			return ps
		}
		e := &pathEntry{done: make(chan struct{})}
		shard.m[key] = e
		shard.mu.Unlock()

		d.pathMisses++
		trunc0 := sl.BudgetTruncations
		func() {
			defer func() {
				e.panicVal = recover()
				if e.panicVal != nil || sl.BudgetTruncations > trunc0 {
					e.volatile = true
					shard.mu.Lock()
					delete(shard.m, key)
					shard.mu.Unlock()
				} else {
					sh.canonPublish(src, rc, e.paths)
				}
				close(e.done)
			}()
			e.paths = sl.PathsFrom(src)
		}()
		if e.panicVal != nil {
			panic(e.panicVal)
		}
		return e.paths
	}
}

// ScopeGroups partitions spec indices by detection scope in
// first-appearance order, preserving input order inside each group: the
// region groups every detection schedules, caches, shards, and merges by.
func ScopeGroups(specs []*spec.Spec) [][]int {
	byScope := make(map[string]int)
	var groups [][]int
	for i, s := range specs {
		scope := s.Scope()
		gi, ok := byScope[scope]
		if !ok {
			gi = len(groups)
			byScope[scope] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
