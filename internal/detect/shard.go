package detect

import (
	"slices"
	"sort"

	"seal/internal/spec"
)

// Group-scoped result assembly: the pieces that let region groups computed
// anywhere — on a local worker pool, in an earlier run (cache replay), or
// in another process (a shard) — merge into a single-process run's output
// byte-for-byte.
//
// The merge leans on one structural fact: Bug.Key embeds the spec's scope
// (Fn + "|" + Scope + " | " + Constraint), and every unit of work is a
// whole region group — one scope. Two bugs with equal keys therefore always
// originate in the same group, so the group-local dedup (mergeBugs over the
// group's specs, which preserves global relative spec order) already IS
// the global first-wins dedup restricted to that group. The merge only has
// to interleave and re-sort; the ordinal-based dedup in MergeShardRecs is a
// soundness backstop, not a load-bearing step.

// ShardBug is the wire form of one merged bug: the serializable record
// plus the dedup identity (Bug.Key) and the sort key (Spec.ID) that the
// in-process merge reads off live IR. Ord is the ordinal of the producing
// spec within the spec list the bug was computed over (a group, or a shard
// job); Fold translates it to the global spec ordinal before merging, so
// cached group results stay valid whatever the global database layout.
type ShardBug struct {
	Key    string `json:"key"`
	SpecID string `json:"spec_id"`
	Ord    int    `json:"ord"`
	Rec    BugRec `json:"rec"`
}

// ShardBugsOf flattens a merged bug list into wire form; specs is the spec
// list the bugs were computed over, indexed to recover each bug's
// producing-spec ordinal. Nil-safe on all inputs.
func ShardBugsOf(bugs []*Bug, specs []*spec.Spec) []ShardBug {
	if len(bugs) == 0 {
		return nil
	}
	ord := make(map[*spec.Spec]int, len(specs))
	for i, s := range specs {
		ord[s] = i
	}
	out := make([]ShardBug, len(bugs))
	for i, b := range bugs {
		out[i] = ShardBug{Key: b.Key(), SpecID: b.Spec.ID, Ord: ord[b.Spec], Rec: Record(b)}
	}
	return out
}

// MergeShardRecs is the deterministic record merge: the wire-form
// counterpart of mergeBugs. Input is the concatenation of every group's
// ShardBugs with Ord already translated to global spec ordinals; output is
// the record list a single-process run would have produced — first-wins
// dedup by Key in global spec order, then the (Fn, SpecID) sort the
// renderer relies on. Input order does not matter.
func MergeShardRecs(all []ShardBug) []BugRec {
	best := make(map[string]int, len(all)) // key -> index into all
	for i, sb := range all {
		if prev, ok := best[sb.Key]; !ok || sb.Ord < all[prev].Ord {
			best[sb.Key] = i
		}
	}
	if len(best) == 0 {
		return nil // match a bug-free single-process run's nil Recs
	}
	// Sort indices, not records: a ShardBug is too wide to swap cheaply.
	merged := make([]int, 0, len(best))
	for _, i := range best {
		merged = append(merged, i)
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := &all[merged[i]], &all[merged[j]]
		if a.Rec.Fn != b.Rec.Fn {
			return a.Rec.Fn < b.Rec.Fn
		}
		return a.SpecID < b.SpecID
	})
	recs := make([]BugRec, len(merged))
	for i, k := range merged {
		recs[i] = all[k].Rec
	}
	return recs
}

// Fold merges region-group outcomes into the Result one in-process run over
// the whole spec list produces, however each outcome was obtained: computed
// on a local worker pool, replayed from the memo or the persistent cache,
// or returned by a shard worker. Every detection finishes through it.
type Fold struct {
	ord map[string]int // scope -> global group ordinal
	res Result
}

// NewFold starts a merge over a run's region groups, given their scopes in
// global group order — the order robustness records are reported in.
func NewFold(scopes []string) *Fold {
	ord := make(map[string]int, len(scopes))
	for gi, sc := range scopes {
		ord[sc] = gi
	}
	return &Fold{ord: ord}
}

// Add folds one outcome whose bug ordinals index specIdx (the global spec
// indices of the spec list it was computed over) and returns the number of
// bug records folded in. A malformed ordinal is dropped, never panicked on.
func (f *Fold) Add(specIdx []int, o *Outcome) int {
	n := 0
	f.res.Bugs = slices.Grow(f.res.Bugs, len(o.Bugs))
	for _, sb := range o.Bugs {
		if sb.Ord < 0 || sb.Ord >= len(specIdx) {
			continue
		}
		sb.Ord = specIdx[sb.Ord]
		f.res.Bugs = append(f.res.Bugs, sb)
		n++
	}
	f.res.Units = append(f.res.Units, o.Units...)
	f.res.Failures = append(f.res.Failures, o.Failures...)
	f.res.Degraded = append(f.res.Degraded, o.Degraded...)
	f.res.Stats = f.res.Stats.Merge(o.Stats)
	f.res.Solver.Add(o.Solver)
	return n
}

// Result finishes the merge: records deduplicated and sorted, units sorted
// by ID, and robustness records in global group order.
func (f *Fold) Result() *Result {
	res := f.res
	res.Recs = MergeShardRecs(res.Bugs)
	sort.Slice(res.Units, func(i, j int) bool { return res.Units[i].ID < res.Units[j].ID })
	sort.SliceStable(res.Failures, func(i, j int) bool {
		return f.ord[res.Failures[i].Unit] < f.ord[res.Failures[j].Unit]
	})
	sort.SliceStable(res.Degraded, func(i, j int) bool {
		return f.ord[res.Degraded[i].Unit] < f.ord[res.Degraded[j].Unit]
	})
	return &res
}
