package dataflow

import (
	"math/bits"
	"slices"

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
	return appendEffectiveDefs(nil, fn, s)
}

// appendEffectiveDefs appends EffectiveDefsFlagged(fn, s) to out.
func appendEffectiveDefs(out []DefLoc, fn *ir.Func, s *ir.Stmt) []DefLoc {
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
	var buf [4]DefLoc
	flagged := appendEffectiveDefs(buf[:0], fn, s)
	out := make([]ir.Loc, len(flagged))
	for i, d := range flagged {
		out[i] = d.Loc
	}
	return out
}

// EffectiveUses returns the locations a statement may read, including
// callee reads through pointer arguments. The result may share s.Uses:
// callers must not modify it (appending is safe).
func EffectiveUses(fn *ir.Func, s *ir.Stmt) []ir.Loc {
	out := s.Uses[:len(s.Uses):len(s.Uses)]
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
// Definition sets are word bitsets over the function's def indices, with
// IN/OUT sets indexed by Block.ID.
func FlowAnalyze(fn *ir.Func, pts *PointsTo) *FuncFlow {
	// Most functions have fewer def-use chains than statements: sized so,
	// Deps is allocated once for them instead of regrown from empty.
	ff := &FuncFlow{Fn: fn, Deps: make([]DataDep, 0, fn.NumStmts())}

	// Enumerate all defs, statement by statement in block order: the defs
	// of the k-th statement are defs[defStart[k]:defStart[k+1]], and the
	// statements of block b start at ordinal stmtStart[b.ID].
	ns := fn.NumStmts()
	defs := make([]flowDef, 0, ns) // most statements define one loc
	stmtStart := make([]int, len(fn.Blocks)+1)
	defStart := make([]int32, 0, ns+1)
	var dls []DefLoc // one statement's defs, reused
	for _, b := range fn.Blocks {
		stmtStart[b.ID] = len(defStart)
		for _, s := range b.Stmts {
			defStart = append(defStart, int32(len(defs)))
			dls = appendEffectiveDefs(dls[:0], fn, s)
			for _, dl := range dls {
				defs = append(defs, flowDef{stmt: s, loc: dl.Loc, strong: isStrong(dl.Loc), effect: dl.Effect})
			}
		}
	}
	stmtStart[len(fn.Blocks)] = len(defStart)
	defStart = append(defStart, int32(len(defs)))
	n := len(defs)
	words := (n + 63) / 64

	fa := newFlowAliases(fn, pts, len(defs))

	// Kill lists, once per call: the k-th statement's strong defs kill
	// every other statement's def of the same concrete loc.
	killStart := make([]int32, len(defStart))
	var kills []int32
	for k := 0; k+1 < len(defStart); k++ {
		killStart[k] = int32(len(kills))
		for di := defStart[k]; di < defStart[k+1]; di++ {
			d := defs[di]
			if !d.strong {
				continue
			}
			for j := range defs {
				if defs[j].stmt != d.stmt && defs[j].loc.Equal(d.loc) {
					kills = append(kills, int32(j))
				}
			}
		}
	}
	killStart[len(defStart)-1] = int32(len(kills))

	apply := func(set []uint64, k int) {
		for _, j := range kills[killStart[k]:killStart[k+1]] {
			set[j>>6] &^= 1 << (j & 63)
		}
		for di := defStart[k]; di < defStart[k+1]; di++ {
			set[di>>6] |= 1 << (di & 63)
		}
	}

	nb := len(fn.Blocks)
	inBack := make([]uint64, nb*words)
	outBack := make([]uint64, nb*words)
	row := func(back []uint64, b *ir.Block) []uint64 {
		return back[b.ID*words : (b.ID+1)*words : (b.ID+1)*words]
	}
	// Worklist iteration to the least fixpoint (independent of visit
	// order: OUT sets only grow). The queue is a ring over work's nb
	// slots: a block is queued at most once, so it never holds more.
	work := append(make([]*ir.Block, 0, nb), fn.Blocks...)
	queued := make([]bool, nb)
	for i := range queued {
		queued[i] = true
	}
	ob := make([]uint64, words)
	for head, size := 0, nb; size > 0; size-- {
		b := work[head]
		head = (head + 1) % nb
		queued[b.ID] = false
		ib := row(inBack, b)
		clear(ib)
		for _, p := range b.Preds {
			orInto(ib, row(outBack, p))
		}
		copy(ob, ib)
		for k := stmtStart[b.ID]; k < stmtStart[b.ID+1]; k++ {
			apply(ob, k)
		}
		if orInto(row(outBack, b), ob) {
			for _, sc := range b.Succs {
				if !queued[sc.ID] {
					queued[sc.ID] = true
					work[(head+size-1)%nb] = sc
					size++
				}
			}
		}
	}

	// Def-use chains: replay each block. Every statement is replayed once,
	// so edges are deduplicated per use statement.
	cur := make([]uint64, words)
	var regular, effects []int
	var seen []depKey
	for _, b := range fn.Blocks {
		copy(cur, row(inBack, b))
		for i, s := range b.Stmts {
			k := stmtStart[b.ID] + i
			uses := EffectiveUses(fn, s)
			seen = seen[:0]
			for ui, u := range uses {
				// Gather reaching defs, preferring regular definitions;
				// call-effect writes are weak fallbacks only.
				regular, effects = regular[:0], effects[:0]
				for w, word := range cur {
					for word != 0 {
						j := w<<6 | bits.TrailingZeros64(word)
						word &= word - 1
						if defs[j].stmt == s || !fa.alias(j, defs[j], u) {
							continue
						}
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
				class := keyClass(uses, ui)
				for _, j := range chosen {
					key := depKey{def: defs[j].stmt, loc: class}
					if !slices.Contains(seen, key) {
						seen = append(seen, key)
						ff.Deps = append(ff.Deps, DataDep{Def: defs[j].stmt, Use: s, Loc: u})
					}
				}
				if len(chosen) == 0 {
					ff.Unrooted = append(ff.Unrooted, DataDep{Use: s, Loc: u})
				}
			}
			apply(cur, k)
		}
	}
	return ff
}

// orInto sets dst |= src and reports whether dst changed.
func orInto(dst, src []uint64) bool {
	changed := false
	for i, w := range src {
		if w&^dst[i] != 0 {
			dst[i] |= w
			changed = true
		}
	}
	return changed
}

// depKey identifies one def-use edge of the statement being replayed for
// deduplication: the defining statement plus the key class of the read
// location (keyClass).
type depKey struct {
	def *ir.Stmt
	loc int
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

func newFlowAliases(fn *ir.Func, pts *PointsTo, nDefs int) *flowAliases {
	return &flowAliases{fn: fn, pts: pts, defs: make([][]Cell, nDefs), paths: make(map[*ir.Var][]resolvedLoc)}
}

type resolvedLoc struct {
	loc   ir.Loc
	cells []Cell
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
