// Package infer turns analyzed security patches into interface
// specifications: it selects slicing criteria (paper §6.2.1), collects
// changed value-flow paths, classifies them into P−/P+/PΨ/PΩ (Alg. 1),
// and deduces quantified relations (Alg. 2) abstracted into the
// specification domain (§6.3.3).
package infer

import (
	"sort"

	"seal/internal/budget"
	"seal/internal/ir"
	"seal/internal/patch"
	"seal/internal/pdg"
	"seal/internal/vfp"
)

// Criteria selects the slicing criteria of one patch side (paper §6.2.1):
// (1) statements on changed lines; (2) statements whose control dependence
// involves a changed branch; (3) use-site statements in patched functions
// that are order-comparable with a changed statement (flow-dependence
// changes).
func Criteria(g *pdg.Graph, a *patch.Analyzed, side patch.Side) []*ir.Stmt {
	changed := a.ChangedStmts(side)
	seen := make(map[*ir.Stmt]bool)
	var out []*ir.Stmt
	add := func(s *ir.Stmt) {
		if s != nil && !seen[s] && s.Kind != ir.StNop {
			seen[s] = true
			out = append(out, s)
		}
	}
	changedSet := make(map[*ir.Stmt]bool)
	for _, s := range changed {
		changedSet[s] = true
		add(s)
	}
	// Group changed statements by function.
	byFn := make(map[*ir.Func][]*ir.Stmt)
	for _, s := range changed {
		byFn[s.Fn] = append(byFn[s.Fn], s)
	}
	for fn, chg := range byFn {
		info := g.CFG(fn)
		for _, s := range fn.Stmts() {
			if seen[s] || s.Kind == ir.StNop {
				continue
			}
			// (2) control dependence on a changed branch.
			ctl := false
			for _, d := range info.StmtDeps(s) {
				if changedSet[d.Branch] {
					ctl = true
					break
				}
			}
			if ctl {
				add(s)
				continue
			}
			// (3) flow-dependence change: order-comparable use sites.
			if !isUseSite(s) {
				continue
			}
			for _, c := range chg {
				if info.OrderComparable(s, c) {
					add(s)
					break
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CounterpartStmts maps criteria of one program version onto the matching
// statements (same function name, same spelling) of the other version.
// This makes criteria symmetric when only one side has textual changes —
// e.g. a patch that merely wraps existing code in a new guard (Fig. 4)
// changes no pre-patch line, yet the guarded statements' control
// dependence changed in both versions (paper §6.2.1 bullet 2).
func CounterpartStmts(criteria []*ir.Stmt, other *ir.Program) []*ir.Stmt {
	type key struct {
		fn  string
		str string
	}
	want := make(map[key]bool, len(criteria))
	for _, s := range criteria {
		want[key{s.Fn.Name, s.String()}] = true
	}
	var out []*ir.Stmt
	for _, fn := range other.FuncList {
		for _, s := range fn.Stmts() {
			if s.Kind == ir.StNop {
				continue
			}
			if want[key{fn.Name, s.String()}] {
				out = append(out, s)
			}
		}
	}
	return out
}

// MergeCriteria unions two criterion lists.
func MergeCriteria(a, b []*ir.Stmt) []*ir.Stmt {
	seen := make(map[*ir.Stmt]bool, len(a))
	out := append([]*ir.Stmt{}, a...)
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// isUseSite reports whether a statement is a potential ultimate-use site
// worth re-slicing for flow-order changes (calls and memory accesses).
func isUseSite(s *ir.Stmt) bool {
	if s.Kind == ir.StCall {
		return true
	}
	if s.Kind == ir.StAssign {
		for _, l := range append(append([]ir.Loc{}, s.Defs...), s.Uses...) {
			if l.HasDeref() {
				return true
			}
		}
	}
	return false
}

// CollectPathsBudget is CollectPaths metered against a unit budget, with
// truncation counters accumulated into trunc (both optional). Slicing stops
// charging once the budget is exhausted; the paths gathered so far are
// returned, individually marked Truncated where their enumeration was cut
// short.
func CollectPathsBudget(g *pdg.Graph, criteria []*ir.Stmt, b *budget.Budget, trunc *TruncCount) []*vfp.Path {
	sl := vfp.NewSlicer(g)
	sl.Budget = b
	if b != nil {
		sl.ApplyLimits(b.Limits())
	}
	var all []*vfp.Path
	for _, c := range criteria {
		all = append(all, sl.Collect(c)...)
	}
	if trunc != nil {
		trunc.Total += sl.Truncations
		trunc.Budget += sl.BudgetTruncations
	}
	return vfp.DedupePaths(all)
}

// TruncCount accumulates the counted truncation warnings of a slicing
// phase: Total counts every cut-short enumeration, Budget the subset cut by
// the dynamic unit budget rather than the deterministic path/depth caps.
type TruncCount struct {
	Total  int64
	Budget int64
}
