package seal

import (
	"context"
	"runtime"
	"sync"

	"seal/internal/budget"
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
	// Cache is the persistent analysis cache; nil disables it. The run's
	// DetectResult.PCache is its counter snapshot at the end of the run.
	Cache *Cache
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
// (inside cache.Key) → seal analysis version → config (detectConfigPart)
// → target sources → the group's scope → the group's own spec subset. Only
// the last part changes when a spec inside the group is edited.
func detectGroupKey(targetHash, scope, groupHash, cfg string) string {
	return cache.Key(
		"tier:"+cache.TierDetectGroup,
		"seal:"+Version,
		cfg,
		"target:"+targetHash,
		"scope:"+scope,
		"specs:"+groupHash,
	)
}

// GroupPlan is the spec-side half of a detection: a spec list split into
// its region groups, each group's scope and spec subset, and (on the first
// run that keys groups) each subset's SpecSetHash. It depends on the spec
// list alone and is read-only once built, so any number of runs may share
// one: the CLI builds one per run, a daemon one per published snapshot.
type GroupPlan struct {
	groups  [][]int   // each group's global spec indices, in spec order
	scopes  []string  // each group's detection scope
	subsets [][]*Spec // each group's specs

	hashOnce sync.Once
	hashes   []string // SpecSetHash of each subset
}

// PlanGroups partitions specs into region groups.
func PlanGroups(specs []*Spec) *GroupPlan {
	p := &GroupPlan{groups: detect.ScopeGroups(specs)}
	p.scopes = make([]string, len(p.groups))
	p.subsets = make([][]*Spec, len(p.groups))
	all := make([]*Spec, 0, len(specs)) // every subset, back to back
	for gi, g := range p.groups {
		at := len(all)
		for _, si := range g {
			all = append(all, specs[si])
		}
		p.subsets[gi] = all[at:len(all):len(all)]
		p.scopes[gi] = specs[g[0]].Scope()
	}
	return p
}

// groupHashes returns each group's spec-side key part, hashing the
// subsets on the first call.
func (p *GroupPlan) groupHashes() []string {
	p.hashOnce.Do(func() {
		p.hashes = make([]string, len(p.subsets))
		for gi, sub := range p.subsets {
			p.hashes[gi] = SpecSetHash(sub)
		}
	})
	return p.hashes
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
	var targetHash string
	if opts.Cache.Enabled() {
		targetHash = cache.FileSetHash(files)
	}
	acquire := func() (*detect.Shared, error) {
		t, err := LoadFiles(files)
		if err != nil {
			return nil, err
		}
		return detect.NewShared(t.Prog), nil
	}
	return detectGroups(ctx, targetHash, acquire, PlanGroups(specs), opts, nil)
}

// Detect runs a budgeted, cached detection of plan's specs pinned to this
// resident substrate (see DetectFiles). Groups resolve from the group memo
// first, so a repeated request — or a request after a one-spec edit —
// replays every unchanged group from memory; clean computed groups are
// written back to the memo and, when configured, the persistent cache. The
// run's Stats are added to the resident's total (see Stats).
func (r *Resident) Detect(ctx context.Context, plan *GroupPlan, opts DetectRunOptions) (*DetectResult, GroupedStats, error) {
	acquire := func() (*detect.Shared, error) { return r.sh, nil }
	res, gs, err := detectGroups(ctx, r.TargetHash, acquire, plan, opts, &r.memo)
	if res != nil {
		r.statsMu.Lock()
		r.stats = r.stats.Merge(res.Stats)
		r.statsMu.Unlock()
	}
	return res, gs, err
}

// detectGroups is the group scheduler. acquire is called at most once, and
// only when some group missed; memo may be nil (persistent cache only).
// Group keys are composed, and the memo consulted, serially in group
// order, and only when there is a memo or a cache to consult; the groups
// the memo missed are then looked up in the persistent cache on a pool of
// GOMAXPROCS readers. Replayed groups are Findings, so the result's Stats
// and memo split are the work of the groups computed in this run.
func detectGroups(ctx context.Context, targetHash string, acquire func() (*detect.Shared, error), plan *GroupPlan, opts DetectRunOptions, memo *sync.Map) (*DetectResult, GroupedStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pc := opts.Cache
	n := len(plan.groups)
	gs := GroupedStats{Groups: n}
	opts.Obs.SetUnitsTotal(n)
	keys := make([]string, n) // "" = never cached
	outs := make([]*detect.Outcome, n)
	var probes []int // groups the memo missed, to look up on disk
	if memo != nil || pc.Enabled() {
		hashes := plan.groupHashes()
		cfg := detectConfigPart(opts.Limits)
		for gi, scope := range plan.scopes {
			keys[gi] = detectGroupKey(targetHash, scope, hashes[gi], cfg)
			if memo != nil {
				if v, ok := memo.Load(scope); ok && v.(memoEntry).key == keys[gi] {
					outs[gi] = v.(memoEntry).o
				}
			}
			if outs[gi] == nil && pc.Enabled() {
				probes = append(probes, gi)
			}
		}
	}
	// Disk probes are file reads and checksums, independent per group, so
	// they run on a bounded pool; a hit is promoted into the memo.
	if len(probes) > 0 {
		budget.Each(runtime.GOMAXPROCS(0), len(probes), func(i int) {
			gi := probes[i]
			var o detect.Outcome
			if pc.Get(cache.TierDetectGroup, keys[gi], &o) { // Outcome.UnmarshalBinary
				outs[gi] = &o
				if memo != nil {
					memo.Store(plan.scopes[gi], memoEntry{keys[gi], &o})
				}
			}
		})
	}
	var missed [][]*Spec
	var missedAt []int
	for gi, o := range outs {
		if o == nil {
			missed, missedAt = append(missed, plan.subsets[gi]), append(missedAt, gi)
			continue
		}
		gs.Warm++
		// Replay the group's unit spans with the computing run's stage
		// structure, so warm and cold manifests agree.
		for _, u := range o.Units {
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
			// Only full-fidelity groups are stored: a degraded or
			// quarantined outcome must never poison a later full-budget run.
			if len(o.Failures) > 0 || len(o.Degraded) > 0 || keys[gi] == "" {
				pc.NoteUncacheable()
				continue
			}
			if memo != nil {
				memo.Store(plan.scopes[gi], memoEntry{keys[gi], o.Findings()})
			}
			pc.Put(cache.TierDetectGroup, keys[gi], o) // Outcome.MarshalBinary encodes o.Findings()
		}
	}

	f := detect.NewFold(plan.scopes)
	for gi, o := range outs {
		if o != nil {
			f.Add(plan.groups[gi], o)
		}
	}
	res := f.Result()
	res.PCache = pc.Stats()
	return res, gs, runErr
}

// memoEntry is a group memo value: for one group key, the Findings a disk
// hit decodes. The memo holds one entry per region-group scope, so a spec
// edit replaces its group's old outcome instead of adding a new one.
type memoEntry struct {
	key string
	o   *detect.Outcome
}
