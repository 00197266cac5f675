package seal

import (
	"context"
	"sync"

	"seal/internal/cache"
	"seal/internal/detect"
	"seal/internal/obs"
)

// This file is the one detection flow. Every detection — the CLI over a
// flat spec file or a spec store, a resident daemon's /detect and /shard
// requests — runs region groups (all specs sharing one detection scope,
// the paper's detection-region unit, §6.4.1) through it. Each group
// resolves group memo → persistent TierDetectGroup entry → compute, keyed
// by the group's own spec subset, so editing one spec invalidates exactly
// the group that owns it. The substrate is acquired only when some group
// missed, the missed groups run together on one worker pool over it, and
// one fold merges every group, replayed or computed alike. The merged
// output is byte-identical to the sequential Detect over the same specs.

// DetectRunOptions configures a cached, budgeted detection run.
type DetectRunOptions struct {
	// Workers is the number of region groups computed concurrently over
	// one shared substrate (output is identical at any count).
	Workers int
	// Limits is the per-unit resource budget.
	Limits Limits
	// Obs, when non-nil, records one unit span per region group — live or
	// replayed — so warm and cold manifests agree.
	Obs *Recorder
	// CacheDir enables the persistent analysis cache rooted there; empty
	// disables it.
	CacheDir string
	// CacheReadOnly serves hits but never writes (shared or archived
	// caches).
	CacheReadOnly bool
	// CacheMaxBytes bounds the persistent cache's total on-disk size;
	// exceeding it evicts least-recently-used entries. 0 = unbounded.
	CacheMaxBytes int64
}

// GroupedStats reports how incremental a detection was.
type GroupedStats struct {
	// Groups is the region-group count of the corpus.
	Groups int
	// Warm counts groups replayed from the memo or the persistent cache.
	Warm int
	// Computed counts groups that ran on the substrate.
	Computed int
}

// detectGroupKey is the TierDetectGroup fingerprint chain: schema version
// (inside cache.Key) → seal analysis version → config → target sources →
// the group's scope → the group's own spec subset. Only the last part
// changes when a spec inside the group is edited.
func detectGroupKey(targetHash, scope, groupHash string, limits Limits) string {
	return cache.Key(
		"tier:"+cache.TierDetectGroup,
		"seal:"+Version,
		detectConfigPart(limits),
		"target:"+targetHash,
		"scope:"+scope,
		"specs:"+groupHash,
	)
}

// DetectFiles runs a budgeted, fault-isolated detection over an in-memory
// source set, with an optional persistent cache. Every region group runs as
// one unit of work: quarantined units are reported as FailureRecords with
// their results dropped, budget-exhausted units finish Degraded with
// partial results kept, and all remaining output is byte-identical to an
// unfaulted run. When every group hits the cache the sources are
// fingerprinted but never parsed; otherwise a throwaway substrate is
// built and only the missed groups compute. The error is non-nil only for
// run-level aborts (context canceled, or more than opts.Limits.MaxFailures
// units quarantined) — the partial result is valid either way.
func DetectFiles(ctx context.Context, files map[string]string, specs []*Spec, opts DetectRunOptions) (*DetectResult, GroupedStats, error) {
	pc, err := openCache(opts.CacheDir, opts.CacheReadOnly, opts.CacheMaxBytes)
	if err != nil {
		return nil, GroupedStats{}, err
	}
	var targetHash string
	if pc.Enabled() {
		targetHash = cache.FileSetHash(files)
	}
	acquire := func() (*detect.Shared, error) {
		t, err := LoadFiles(files)
		if err != nil {
			return nil, err
		}
		return detect.NewShared(t.Prog), nil
	}
	return detectGroups(ctx, targetHash, acquire, specs, opts, pc, nil, nil)
}

// Detect runs a budgeted, cached detection pinned to this resident
// substrate (see DetectFiles). Groups resolve from the group memo first, so
// a repeated request — or a request after a one-spec edit — replays every
// unchanged group from memory; clean computed groups are written back to
// the memo and, when configured, the persistent cache. Every computed
// group's Stats are added to the resident's total (see Stats).
func (r *Resident) Detect(ctx context.Context, specs []*Spec, opts DetectRunOptions) (*DetectResult, GroupedStats, error) {
	pc, err := openCache(opts.CacheDir, opts.CacheReadOnly, opts.CacheMaxBytes)
	if err != nil {
		return nil, GroupedStats{}, err
	}
	acquire := func() (*detect.Shared, error) { return r.sh, nil }
	return detectGroups(ctx, r.TargetHash, acquire, specs, opts, pc, &r.memo, r.addStats)
}

// detectGroups is the group scheduler. acquire is called at most once, and
// only when some group missed; memo may be nil (persistent cache only).
// Group keys are hashed only when there is a memo or a cache to consult.
// addStats, when non-nil, receives the Stats of every computed group.
func detectGroups(ctx context.Context, targetHash string, acquire func() (*detect.Shared, error), specs []*Spec, opts DetectRunOptions, pc *cache.Cache, memo *sync.Map, addStats func(DetectStats)) (*DetectResult, GroupedStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	groups := detect.ScopeGroups(specs)
	gs := GroupedStats{Groups: len(groups)}
	opts.Obs.SetUnitsTotal(len(groups))
	scopes := make([]string, len(groups))
	keys := make([]string, len(groups)) // "" = never cached
	outs := make([]*detect.Outcome, len(groups))
	var missed [][]*Spec
	var missedAt []int
	for gi, g := range groups {
		subset := make([]*Spec, len(g))
		for k, si := range g {
			subset[k] = specs[si]
		}
		scopes[gi] = subset[0].Scope()
		if memo != nil || pc.Enabled() {
			keys[gi] = detectGroupKey(targetHash, scopes[gi], SpecSetHash(subset), opts.Limits)
			outs[gi] = lookupGroup(keys[gi], memo, pc)
		}
		if outs[gi] == nil {
			missed, missedAt = append(missed, subset), append(missedAt, gi)
			continue
		}
		gs.Warm++
		// Replay the group's unit spans with the computing run's stage
		// structure, so warm and cold manifests agree.
		for _, u := range outs[gi].Units {
			opts.Obs.ReplayUnit(obs.UnitManifest{Stage: "detect", ID: u.ID, Specs: u.Specs, Bugs: u.Bugs,
				Stages: []obs.StageManifest{{Name: "slice"}, {Name: "solve"}}})
		}
	}

	var runErr error
	if len(missed) > 0 {
		sh, err := acquire()
		if err != nil {
			return nil, gs, err
		}
		var computed []*detect.Outcome
		computed, runErr = sh.RunGroups(ctx, missed, opts.Workers, opts.Limits, opts.Obs)
		for k, o := range computed {
			if o == nil {
				continue // never started: the run aborted first
			}
			gi := missedAt[k]
			outs[gi] = o
			gs.Computed++
			if addStats != nil {
				addStats(o.Stats)
			}
			// Only full-fidelity groups are stored: a degraded or
			// quarantined outcome must never poison a later full-budget run.
			if len(o.Failures) > 0 || len(o.Degraded) > 0 || keys[gi] == "" {
				pc.NoteUncacheable()
				continue
			}
			if memo != nil {
				memo.Store(keys[gi], o)
			}
			pc.Put(cache.TierDetectGroup, keys[gi], o) // Outcome.MarshalBinary
		}
	}

	f := detect.NewFold(scopes)
	for gi, o := range outs {
		if o != nil {
			f.Add(groups[gi], o)
		}
	}
	res := f.Result()
	res.PCache = pc.Stats()
	return res, gs, runErr
}

// lookupGroup resolves one group key against the memo, then the persistent
// cache (promoting a disk hit into the memo). Nil on a miss. A disk entry
// holds the group's Outcome in its binary form (Outcome.UnmarshalBinary).
func lookupGroup(key string, memo *sync.Map, pc *cache.Cache) *detect.Outcome {
	if memo != nil {
		if v, ok := memo.Load(key); ok {
			return v.(*detect.Outcome)
		}
	}
	var o detect.Outcome
	if !pc.Get(cache.TierDetectGroup, key, &o) {
		return nil
	}
	if memo != nil {
		memo.Store(key, &o)
	}
	return &o
}
