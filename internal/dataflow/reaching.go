package dataflow

import (
	"seal/internal/cir"
	"seal/internal/ir"
)

// DataDep is one intra-procedural data-dependence edge: the value defined
// at Def reaches the read of Loc at Use.
type DataDep struct {
	Def *ir.Stmt
	Use *ir.Stmt
	Loc ir.Loc // the location read at Use
}

// FuncFlow is the flow-sensitive def-use solution of one function.
type FuncFlow struct {
	Fn   *ir.Func
	Deps []DataDep

	// UseDefs indexes Deps by use statement.
	UseDefs map[*ir.Stmt][]DataDep
	// DefUses indexes Deps by defining statement.
	DefUses map[*ir.Stmt][]DataDep
	// Unrooted lists (use stmt, loc) pairs whose read has no reaching
	// definition inside the function: reads of parameters' pointees,
	// globals, or uninitialized locals. These are the slicing sources /
	// uninitialized-value evidence.
	Unrooted []DataDep // Def == nil
}

type flowDef struct {
	stmt   *ir.Stmt
	loc    ir.Loc
	strong bool
	effect bool // call-effect write (weak fallback, see DefLoc)
}

// isStrong reports whether a write to loc can kill previous writes: the
// path must be concrete (no deref, no unknown offset).
func isStrong(l ir.Loc) bool {
	for _, st := range l.Path {
		if st.Kind == ir.StepDeref || (st.Kind == ir.StepOff && st.Off == ir.AnyOff) {
			return false
		}
	}
	return true
}

// pointeeLoc derives the access path of the memory a pointer-valued
// argument exposes to a callee: &x.f -> x.f[*], p -> p*[*], p->f -> p->f*[*].
func pointeeLoc(fn *ir.Func, arg cir.Expr) (ir.Loc, bool) {
	switch x := arg.(type) {
	case *cir.UnaryExpr:
		if x.Op == cir.TokAmp {
			if lv, _, ok := fn.LvalLoc(x.X); ok {
				lv.Path = append(append([]ir.Step{}, lv.Path...), ir.Step{Kind: ir.StepOff, Off: ir.AnyOff})
				return normalizeLoc(lv), true
			}
		}
		return ir.Loc{}, false
	case *cir.CastExpr:
		return pointeeLoc(fn, x.X)
	default:
		if lv, _, ok := fn.LvalLoc(arg); ok {
			if fn.TypeOf(arg).IsPtr() {
				lv.Path = append(append([]ir.Step{}, lv.Path...),
					ir.Step{Kind: ir.StepDeref}, ir.Step{Kind: ir.StepOff, Off: ir.AnyOff})
				return normalizeLoc(lv), true
			}
		}
	}
	return ir.Loc{}, false
}

func normalizeLoc(l ir.Loc) ir.Loc {
	var out []ir.Step
	for _, s := range l.Path {
		if s.Kind == ir.StepOff && len(out) > 0 && out[len(out)-1].Kind == ir.StepOff {
			last := &out[len(out)-1]
			if last.Off == ir.AnyOff || s.Off == ir.AnyOff {
				last.Off = ir.AnyOff
			} else {
				last.Off += s.Off
			}
			continue
		}
		out = append(out, s)
	}
	l.Path = out
	return l
}

// DefLoc is a may-written location; Effect marks call-effect writes
// through pointer arguments, which act as weak fallback definitions: they
// only feed def-use edges for reads no regular definition reaches. This
// keeps API side effects from splicing themselves into value-flow paths
// between a datum and its uses ("we cannot assume one API could manipulate
// arbitrary memory", paper §5 step 2) while still rooting
// initialized-by-callee reads.
type DefLoc struct {
	Loc    ir.Loc
	Effect bool
}

// EffectiveDefsFlagged returns the locations a statement may write,
// including the call-effect writes through pointer arguments ("assume APIs
// could read/write passing pointer parameters and accessible fields",
// paper §7) and parameter pointee initialization at parameter-definition
// nodes.
func EffectiveDefsFlagged(fn *ir.Func, s *ir.Stmt) []DefLoc {
	var out []DefLoc
	for _, l := range s.Defs {
		out = append(out, DefLoc{Loc: l})
	}
	switch {
	case s.IsParamDef():
		v := s.ParamVar()
		if v != nil && v.Type.IsPtr() {
			out = append(out, DefLoc{Loc: ir.Loc{Base: v, Path: []ir.Step{{Kind: ir.StepDeref}, {Kind: ir.StepOff, Off: ir.AnyOff}}}})
		}
	case s.Kind == ir.StCall:
		for _, a := range s.Args {
			if pl, ok := pointeeLoc(fn, a); ok {
				out = append(out, DefLoc{Loc: pl, Effect: true})
			}
		}
	}
	return out
}

// EffectiveDefs returns just the locations of EffectiveDefsFlagged.
func EffectiveDefs(fn *ir.Func, s *ir.Stmt) []ir.Loc {
	flagged := EffectiveDefsFlagged(fn, s)
	out := make([]ir.Loc, len(flagged))
	for i, d := range flagged {
		out[i] = d.Loc
	}
	return out
}

// EffectiveUses returns the locations a statement may read, including
// callee reads through pointer arguments.
func EffectiveUses(fn *ir.Func, s *ir.Stmt) []ir.Loc {
	out := append([]ir.Loc{}, s.Uses...)
	if s.Kind == ir.StCall {
		for _, a := range s.Args {
			if pl, ok := pointeeLoc(fn, a); ok {
				out = append(out, pl)
			}
		}
	}
	return out
}

// FlowAnalyze computes reaching definitions and def-use chains for fn.
func FlowAnalyze(fn *ir.Func, pts *PointsTo) *FuncFlow {
	ff := &FuncFlow{
		Fn:      fn,
		UseDefs: make(map[*ir.Stmt][]DataDep),
		DefUses: make(map[*ir.Stmt][]DataDep),
	}

	// Enumerate all defs.
	var defs []flowDef
	defIdx := make(map[*ir.Stmt][]int)
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			for _, dl := range EffectiveDefsFlagged(fn, s) {
				defIdx[s] = append(defIdx[s], len(defs))
				defs = append(defs, flowDef{stmt: s, loc: dl.Loc, strong: isStrong(dl.Loc), effect: dl.Effect})
			}
		}
	}
	n := len(defs)

	fa := newFlowAliases(fn, pts, len(defs))

	// Per-block GEN/KILL over def bitsets.
	type bits []bool
	newBits := func() bits { return make(bits, n) }
	union := func(dst, src bits) bool {
		changed := false
		for i, v := range src {
			if v && !dst[i] {
				dst[i] = true
				changed = true
			}
		}
		return changed
	}

	apply := func(set bits, s *ir.Stmt) {
		// Kill: strong defs of the same concrete loc.
		for _, di := range defIdx[s] {
			d := defs[di]
			if !d.strong {
				continue
			}
			for j := range defs {
				if defs[j].stmt != s && defs[j].loc.Equal(d.loc) {
					set[j] = false
				}
			}
		}
		for _, di := range defIdx[s] {
			set[di] = true
		}
	}

	in := make(map[*ir.Block]bits)
	out := make(map[*ir.Block]bits)
	for _, b := range fn.Blocks {
		in[b] = newBits()
		out[b] = newBits()
	}
	// Worklist iteration.
	work := append([]*ir.Block{}, fn.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		ib := newBits()
		for _, p := range b.Preds {
			union(ib, out[p])
		}
		in[b] = ib
		ob := append(bits{}, ib...)
		for _, s := range b.Stmts {
			apply(ob, s)
		}
		if union(out[b], ob) {
			for _, sc := range b.Succs {
				work = append(work, sc)
			}
		}
	}

	// Def-use chains: replay each block.
	seenDep := make(map[depKey]bool)
	for _, b := range fn.Blocks {
		cur := append(bits{}, in[b]...)
		for _, s := range b.Stmts {
			uses := EffectiveUses(fn, s)
			for i, u := range uses {
				// Gather reaching defs, preferring regular definitions;
				// call-effect writes are weak fallbacks only.
				var regular, effects []int
				for j := range defs {
					if !cur[j] || defs[j].stmt == s {
						continue
					}
					if fa.alias(j, defs[j], u) {
						if defs[j].effect {
							effects = append(effects, j)
						} else {
							regular = append(regular, j)
						}
					}
				}
				chosen := regular
				if len(chosen) == 0 {
					chosen = effects
				}
				k := keyClass(uses, i)
				for _, j := range chosen {
					key := depKey{def: defs[j].stmt, use: s, loc: k}
					if !seenDep[key] {
						seenDep[key] = true
						dep := DataDep{Def: defs[j].stmt, Use: s, Loc: u}
						ff.Deps = append(ff.Deps, dep)
						ff.UseDefs[s] = append(ff.UseDefs[s], dep)
						ff.DefUses[defs[j].stmt] = append(ff.DefUses[defs[j].stmt], dep)
					}
				}
				if len(chosen) == 0 {
					ff.Unrooted = append(ff.Unrooted, DataDep{Use: s, Loc: u})
				}
			}
			apply(cur, s)
		}
	}
	return ff
}

// depKey identifies one def-use edge for deduplication: the defining and
// using statements plus the key class of the read location (keyClass).
type depKey struct {
	def, use *ir.Stmt
	loc      int
}

// keyClass returns the index of the first of uses whose Loc.Key equals
// that of uses[i]. Edges are deduplicated per use statement, so this index
// stands in for the formatted key.
func keyClass(uses []ir.Loc, i int) int {
	for k := 0; k < i; k++ {
		if sameKey(uses[k], uses[i]) {
			return k
		}
	}
	return i
}

// sameKey reports whether a.Key() == b.Key() without formatting: the same
// base variable ID and steps that print alike (a deref prints as "*"
// whatever its Off, an offset step by its Off).
func sameKey(a, b ir.Loc) bool {
	if a.Base.ID != b.Base.ID || len(a.Path) != len(b.Path) {
		return false
	}
	for i, x := range a.Path {
		y := b.Path[i]
		xd, yd := x.Kind == ir.StepDeref, y.Kind == ir.StepDeref
		if xd != yd || (!xd && x.Off != y.Off) {
			return false
		}
	}
	return true
}

// flowAliases answers FlowAnalyze's may-alias queries for one function.
// The points-to solution is frozen at query time, so each distinct access
// path is resolved to its cells at most once per call: paths are found by
// Loc.Equal within the same base variable, and defs also by index. It
// lives on FlowAnalyze's stack and is never shared.
type flowAliases struct {
	fn    *ir.Func
	pts   *PointsTo
	defs  [][]Cell // by def index; nil until resolved (CellsOf never returns nil)
	paths map[*ir.Var][]resolvedLoc
}

type resolvedLoc struct {
	loc   ir.Loc
	cells []Cell
}

func newFlowAliases(fn *ir.Func, pts *PointsTo, nDefs int) *flowAliases {
	return &flowAliases{fn: fn, pts: pts, defs: make([][]Cell, nDefs), paths: make(map[*ir.Var][]resolvedLoc)}
}

func (fa *flowAliases) defCells(j int, l ir.Loc) []Cell {
	if fa.defs[j] == nil {
		fa.defs[j] = fa.cells(l)
	}
	return fa.defs[j]
}

func (fa *flowAliases) cells(l ir.Loc) []Cell {
	for _, r := range fa.paths[l.Base] {
		if r.loc.Equal(l) {
			return r.cells
		}
	}
	cells := fa.pts.CellsOf(fa.fn, l)
	fa.paths[l.Base] = append(fa.paths[l.Base], resolvedLoc{loc: l, cells: cells})
	return cells
}

// alias reports whether def j (d) may write the memory use u reads.
func (fa *flowAliases) alias(j int, d flowDef, u ir.Loc) bool {
	a := d.loc
	if a.Base == u.Base && a.SameShape(u) {
		return true
	}
	// Distinct address-untaken direct locals cannot alias.
	if d.strong && isStrong(u) && a.Base != u.Base {
		return false
	}
	if fa.pts == nil {
		return a.Base == u.Base
	}
	return overlaps(fa.defCells(j, a), fa.cells(u))
}
