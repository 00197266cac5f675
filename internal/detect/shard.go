package detect

import (
	"slices"
	"sort"
	"strings"

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
// to interleave and re-sort; the ordinal-based dedup in Fold is a
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

// Fold merges region-group outcomes into the Result one in-process run over
// the whole spec list produces, however each outcome was obtained: computed
// on a local worker pool, replayed from the memo or the persistent cache,
// or returned by a shard worker. Every detection finishes through it.
//
// Bugs are folded by reference: Add keeps each outcome's bug list with the
// spec-index map that translates its ordinals, and Result copies each
// surviving record once. The outcomes must not change until the Result is
// no longer used.
type Fold struct {
	scopes []string // global group order
	parts  []foldPart
	nBugs  int
	res    Result
}

// foldPart is one folded outcome's bugs and the global spec indices its
// ordinals index.
type foldPart struct {
	specIdx []int
	bugs    []ShardBug
}

// NewFold starts a merge over a run's region groups, given their scopes in
// global group order — the order robustness records are reported in.
func NewFold(scopes []string) *Fold {
	return &Fold{scopes: scopes}
}

// Add folds one outcome whose bug ordinals index specIdx (the global spec
// indices of the spec list it was computed over) and returns the number of
// bug records folded in. A malformed ordinal is dropped, never panicked on.
func (f *Fold) Add(specIdx []int, o *Outcome) int {
	n := 0
	for i := range o.Bugs {
		if ord := o.Bugs[i].Ord; ord >= 0 && ord < len(specIdx) {
			n++
		}
	}
	if n > 0 {
		f.parts = append(f.parts, foldPart{specIdx, o.Bugs})
		f.nBugs += len(o.Bugs)
	}
	f.res.Units = append(f.res.Units, o.Units...)
	f.res.Failures = append(f.res.Failures, o.Failures...)
	f.res.Degraded = append(f.res.Degraded, o.Degraded...)
	f.res.Stats = f.res.Stats.Merge(o.Stats)
	f.res.Solver.Add(o.Solver)
	return n
}

// Result finishes the merge: records deduplicated and sorted, units sorted
// by ID, and robustness records in global group order. The Result's Bugs
// are nil; ShardBugs lists them in wire form.
func (f *Fold) Result() *Result {
	res := f.res
	res.parts = f.parts
	res.Recs = f.recs()
	sort.Slice(res.Units, func(i, j int) bool { return res.Units[i].ID < res.Units[j].ID })
	if len(res.Failures)+len(res.Degraded) > 1 {
		ord := make(map[string]int, len(f.scopes))
		for gi, sc := range f.scopes {
			ord[sc] = gi
		}
		sort.SliceStable(res.Failures, func(i, j int) bool {
			return ord[res.Failures[i].Unit] < ord[res.Failures[j].Unit]
		})
		sort.SliceStable(res.Degraded, func(i, j int) bool {
			return ord[res.Degraded[i].Unit] < ord[res.Degraded[j].Unit]
		})
	}
	return &res
}

// recs is the deterministic record merge: the record list a single-process
// run would have produced from every folded bug — first-wins dedup by Key
// in global spec order (the earliest folded bug breaks a tie), then the
// (Fn, SpecID) sort the renderer relies on. Fold order does not matter.
func (f *Fold) recs() []BugRec {
	type ref struct {
		b   *ShardBug
		ord int // global spec ordinal
	}
	best := make(map[string]int, f.nBugs) // key -> index into merged
	merged := make([]ref, 0, f.nBugs)
	for _, p := range f.parts {
		for i := range p.bugs {
			sb := &p.bugs[i]
			if sb.Ord < 0 || sb.Ord >= len(p.specIdx) {
				continue
			}
			r := ref{sb, p.specIdx[sb.Ord]}
			if k, ok := best[sb.Key]; !ok {
				best[sb.Key] = len(merged)
				merged = append(merged, r)
			} else if r.ord < merged[k].ord {
				merged[k] = r
			}
		}
	}
	if len(merged) == 0 {
		return nil // match a bug-free single-process run's nil Recs
	}
	slices.SortFunc(merged, func(x, y ref) int {
		if c := strings.Compare(x.b.Rec.Fn, y.b.Rec.Fn); c != 0 {
			return c
		}
		return strings.Compare(x.b.SpecID, y.b.SpecID)
	})
	recs := make([]BugRec, len(merged))
	for i, r := range merged {
		recs[i] = r.b.Rec
	}
	return recs
}

// ShardBugs is the Result's bugs in wire form: every folded bug, in fold
// order, with its ordinal translated to the global spec ordinal — what a
// shard worker answers with.
func (r *Result) ShardBugs() []ShardBug {
	var out []ShardBug
	for _, p := range r.parts {
		for _, sb := range p.bugs {
			if sb.Ord < 0 || sb.Ord >= len(p.specIdx) {
				continue
			}
			sb.Ord = p.specIdx[sb.Ord]
			out = append(out, sb)
		}
	}
	return out
}
