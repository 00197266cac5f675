package solver_test

// The reference solver: Sat, SatBudget, canonKey and the String-deduping
// MkAnd/MkOr as they were before the memo served budgeted checks. Sat
// memoizes verdicts under a canonical string key with conjunct/disjunct
// order sorted away; SatBudget with a live step function bypasses the memo
// and charges 1 + len(conj)/8 steps per DNF conjunct. The oracle tests
// hold the current solver to these verdicts and charge sequences.

import (
	"sort"
	"strings"
	"sync"

	"seal/internal/solver"
)

type refSolver struct {
	mu   sync.Mutex
	memo map[string]bool
}

func newRefSolver() *refSolver { return &refSolver{memo: make(map[string]bool)} }

func (r *refSolver) refSat(f solver.Formula) bool {
	key := refCanonKey(f)
	r.mu.Lock()
	v, ok := r.memo[key]
	r.mu.Unlock()
	if ok {
		return v
	}
	v = refSatRaw(f)
	r.mu.Lock()
	r.memo[key] = v
	r.mu.Unlock()
	return v
}

func refSatRaw(f solver.Formula) bool {
	conjs, ok := solver.ToDNF(refNNF(f))
	if !ok {
		return true
	}
	for _, conj := range conjs {
		if solver.Feasible(conj) {
			return true
		}
	}
	return false
}

func (r *refSolver) refSatBudget(f solver.Formula, step func(int64) error) bool {
	if step == nil {
		return r.refSat(f)
	}
	conjs, ok := solver.ToDNF(refNNF(f))
	if !ok {
		return true
	}
	for _, conj := range conjs {
		if err := step(1 + int64(len(conj))/8); err != nil {
			return true
		}
		if solver.Feasible(conj) {
			return true
		}
	}
	return false
}

func refCanonKey(f solver.Formula) string {
	var sb strings.Builder
	refWriteCanon(&sb, f)
	return sb.String()
}

func refWriteCanon(sb *strings.Builder, f solver.Formula) {
	switch x := f.(type) {
	case nil, solver.TrueF:
		sb.WriteString("T")
	case solver.FalseF:
		sb.WriteString("F")
	case solver.Atom:
		sb.WriteString(solver.String(x))
	case solver.Not:
		sb.WriteString("!(")
		refWriteCanon(sb, x.F)
		sb.WriteString(")")
	case solver.And:
		refWriteCanonNary(sb, "&", x.Fs)
	case solver.Or:
		refWriteCanonNary(sb, "|", x.Fs)
	default:
		sb.WriteString(solver.String(f))
	}
}

func refWriteCanonNary(sb *strings.Builder, op string, fs []solver.Formula) {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = refCanonKey(f)
	}
	sort.Strings(parts)
	sb.WriteString(op)
	sb.WriteString("(")
	sb.WriteString(strings.Join(parts, ","))
	sb.WriteString(")")
}

func refNNF(f solver.Formula) solver.Formula {
	switch x := f.(type) {
	case nil:
		return solver.TrueF{}
	case solver.TrueF, solver.FalseF, solver.Atom:
		return x
	case solver.And:
		fs := make([]solver.Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = refNNF(s)
		}
		return refMkAnd(fs...)
	case solver.Or:
		fs := make([]solver.Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = refNNF(s)
		}
		return refMkOr(fs...)
	case solver.Not:
		switch y := x.F.(type) {
		case solver.TrueF:
			return solver.FalseF{}
		case solver.FalseF:
			return solver.TrueF{}
		case solver.Atom:
			return solver.MkNot(y)
		case solver.Not:
			return refNNF(y.F)
		case solver.And:
			fs := make([]solver.Formula, len(y.Fs))
			for i, s := range y.Fs {
				fs[i] = refNNF(solver.Not{F: s})
			}
			return refMkOr(fs...)
		case solver.Or:
			fs := make([]solver.Formula, len(y.Fs))
			for i, s := range y.Fs {
				fs[i] = refNNF(solver.Not{F: s})
			}
			return refMkAnd(fs...)
		}
	}
	return f
}

func refMkAnd(fs ...solver.Formula) solver.Formula {
	var parts []solver.Formula
	seen := make(map[string]bool)
	var push func(f solver.Formula) bool
	push = func(f solver.Formula) bool {
		switch x := f.(type) {
		case nil, solver.TrueF:
			return true
		case solver.FalseF:
			return false
		case solver.And:
			for _, k := range x.Fs {
				if !push(k) {
					return false
				}
			}
			return true
		default:
			key := solver.String(f)
			if !seen[key] {
				seen[key] = true
				parts = append(parts, f)
			}
			return true
		}
	}
	for _, f := range fs {
		if !push(f) {
			return solver.FalseF{}
		}
	}
	if len(parts) == 0 {
		return solver.TrueF{}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return solver.And{Fs: parts}
}

func refMkOr(fs ...solver.Formula) solver.Formula {
	var parts []solver.Formula
	seen := make(map[string]bool)
	var push func(f solver.Formula) bool
	push = func(f solver.Formula) bool {
		switch x := f.(type) {
		case nil, solver.FalseF:
			return true
		case solver.TrueF:
			return false
		case solver.Or:
			for _, k := range x.Fs {
				if !push(k) {
					return false
				}
			}
			return true
		default:
			key := solver.String(f)
			if !seen[key] {
				seen[key] = true
				parts = append(parts, f)
			}
			return true
		}
	}
	for _, f := range fs {
		if !push(f) {
			return solver.TrueF{}
		}
	}
	if len(parts) == 0 {
		return solver.FalseF{}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return solver.Or{Fs: parts}
}
