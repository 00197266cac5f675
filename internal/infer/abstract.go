package infer

import (
	"sort"
	"strings"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/solver"
	"seal/internal/spec"
	"seal/internal/vfp"
)

// localSymPrefix marks condition symbols that could not be mapped to
// interaction data; atoms over them are dropped during filtering
// (paper §6.2.2: "only retain conditions over interaction data").
const localSymPrefix = "local::"

// Abstracter implements the domain mapping 𝔸 : 𝒱 ↦ V ∪ U (paper §6.3.3):
// program variables and statements are abstracted into specification
// elements, and path conditions are rewritten over canonical value symbols.
type Abstracter struct {
	G *pdg.Graph
	// APIs accumulates the API names mentioned while abstracting (used as
	// the instantiation context of the resulting spec).
	APIs map[string]bool
	// Scope, when non-nil, confines backward data-dependence resolution to
	// the given functions. Detection sets it to the region closure so that
	// abstracted conditions do not depend on which unrelated functions a
	// shared PDG happens to have materialized.
	Scope map[*ir.Func]bool
}

// NewAbstracter returns an abstracter over g.
func NewAbstracter(g *pdg.Graph) *Abstracter {
	return &Abstracter{G: g, APIs: make(map[string]bool)}
}

// IfaceOf returns the canonical interface name fn implements ("" if none).
func IfaceOf(prog *ir.Program, fn *ir.Func) string {
	ifaces := prog.InterfacesOf(fn)
	if len(ifaces) == 0 {
		return ""
	}
	return ifaces[0]
}

// ValueOf abstracts a path source into a V element.
func (ab *Abstracter) ValueOf(p *vfp.Path) (spec.Value, bool) {
	src := p.Source
	switch src.Kind {
	case vfp.SrcParam:
		iface := IfaceOf(ab.G.Prog, src.Fn)
		if iface == "" {
			return spec.Value{}, false
		}
		return spec.Value{
			Kind: spec.VIfaceArg, Iface: iface, ArgIndex: src.ParamIndex,
			Field: fieldOfParamPath(p),
		}, true
	case vfp.SrcAPIRet:
		ab.APIs[src.API] = true
		return spec.Value{Kind: spec.VAPIRet, API: src.API}, true
	case vfp.SrcGlobal:
		return spec.Value{Kind: spec.VGlobal, Global: src.Global}, true
	case vfp.SrcLiteral:
		return spec.Value{Kind: spec.VLiteral, Lit: src.Lit}, true
	case vfp.SrcUninit:
		return spec.Value{Kind: spec.VUninit}, true
	}
	return spec.Value{}, false
}

// fieldOfParamPath narrows a parameter source to the field actually used,
// derived from the sink's access path when it is rooted at the parameter.
func fieldOfParamPath(p *vfp.Path) string {
	loc := p.Sink.Loc
	srcVar := p.Source.Loc.Base
	if srcVar == nil || loc.Base != srcVar {
		return ""
	}
	var offs []int
	for _, st := range loc.Path {
		if st.Kind == ir.StepOff {
			offs = append(offs, st.Off)
		}
	}
	return spec.FieldString(offs)
}

// UseOf abstracts a path sink into a U element.
func (ab *Abstracter) UseOf(p *vfp.Path) (spec.Use, bool) {
	snk := p.Sink
	switch snk.Kind {
	case vfp.SnkAPIArg:
		ab.APIs[snk.API] = true
		return spec.Use{Kind: spec.UAPIArg, API: snk.API, ArgIndex: snk.ArgIndex}, true
	case vfp.SnkIfaceRet:
		iface := IfaceOf(ab.G.Prog, snk.Fn)
		if iface == "" {
			return spec.Use{}, false
		}
		return spec.Use{Kind: spec.UIfaceRet, Iface: iface}, true
	case vfp.SnkGlobalStore:
		return spec.Use{Kind: spec.UGlobalStore, Global: snk.Global}, true
	case vfp.SnkDeref:
		return spec.Use{Kind: spec.UDeref}, true
	case vfp.SnkIndex:
		return spec.Use{Kind: spec.UIndex}, true
	case vfp.SnkDiv:
		return spec.Use{Kind: spec.UDiv}, true
	case vfp.SnkParamStore:
		iface := IfaceOf(ab.G.Prog, snk.Fn)
		if iface == "" {
			return spec.Use{}, false
		}
		return spec.Use{Kind: spec.UParamStore, Iface: iface, ArgIndex: snk.ParamIndex}, true
	}
	return spec.Use{}, false
}

// AbstractPsi rewrites the path condition of p over canonical value
// symbols and drops atoms that do not concern interaction data.
func (ab *Abstracter) AbstractPsi(p *vfp.Path) solver.Formula {
	var parts []solver.Formula
	seen := make(map[*ir.Stmt]bool)
	for _, n := range p.Nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, d := range ab.G.CtrlDeps(n) {
			blk := d.Branch.Blk
			if d.EdgeIdx >= len(blk.EdgeConds) || blk.EdgeConds[d.EdgeIdx] == nil {
				continue
			}
			f := solver.FromCond(blk.EdgeConds[d.EdgeIdx], ab.leafAt(d.Branch))
			if blk.Negated[d.EdgeIdx] {
				f = solver.MkNot(f)
			}
			parts = append(parts, f)
		}
	}
	return solver.Simplify(FilterLocalAtoms(solver.MkAnd(parts...)))
}

// leafAt maps condition leaves at a branch statement to canonical value
// symbols via backward data-dependence resolution.
func (ab *Abstracter) leafAt(branch *ir.Stmt) solver.LeafFn {
	return func(e cir.Expr) solver.Term {
		if lit, ok := e.(*cir.IntLit); ok {
			return solver.Const{Val: lit.Val}
		}
		loc, _, ok := branch.Fn.LvalLoc(e)
		if !ok {
			return solver.Sym{Name: localSymPrefix + branch.Fn.Name + "::" + cir.ExprString(e)}
		}
		if v, ok := ab.valueOfLocAt(branch, loc); ok {
			if v.Kind == spec.VLiteral {
				return solver.Const{Val: v.Lit}
			}
			return solver.Sym{Name: v.Key()}
		}
		return solver.Sym{Name: localSymPrefix + branch.Fn.Name + "::" + cir.ExprString(e)}
	}
}

// valueOfLocAt resolves the interaction datum a location carries at a
// statement (paper §6.2.2: "validate whether each variable in constraint Ψ
// depends on interaction data by traversing data dependence backward").
func (ab *Abstracter) valueOfLocAt(at *ir.Stmt, loc ir.Loc) (spec.Value, bool) {
	field := func() string {
		var offs []int
		for _, st := range loc.Path {
			if st.Kind == ir.StepOff {
				offs = append(offs, st.Off)
			}
		}
		return spec.FieldString(offs)
	}
	// Prefer the reaching definition of this exact location: the datum a
	// condition inspects is whatever last defined it (e.g. risc->cpu at
	// the NULL check is the dma_alloc_coherent return).
	preds := ab.G.PredEdges(at)
	for i := 0; i < preds.Len(); i++ {
		e := preds.At(i)
		if ab.Scope != nil && !ab.Scope[e.From.Fn] {
			continue
		}
		if e.Loc.Base != loc.Base || !e.Loc.SameShape(loc) {
			continue
		}
		if e.From.IsParamDef() {
			continue // fall through to the param classification below
		}
		if v, ok := ab.valueFromDef(e.From, 8); ok {
			return v, true
		}
	}
	if loc.Base.Kind == ir.VarGlobal {
		return spec.Value{Kind: spec.VGlobal, Global: loc.Base.Name, Field: field()}, true
	}
	if loc.Base.Kind == ir.VarParam {
		iface := IfaceOf(ab.G.Prog, at.Fn)
		if iface == "" {
			return spec.Value{}, false
		}
		return spec.Value{Kind: spec.VIfaceArg, Iface: iface, ArgIndex: loc.Base.ParamIndex, Field: field()}, true
	}
	return spec.Value{}, false
}

// valueFromDef classifies the interaction datum produced by a defining
// statement, chasing assignments backward up to the given depth.
func (ab *Abstracter) valueFromDef(d *ir.Stmt, depth int) (spec.Value, bool) {
	if d.IsParamDef() {
		iface := IfaceOf(ab.G.Prog, d.Fn)
		if iface == "" {
			return spec.Value{}, false
		}
		return spec.Value{Kind: spec.VIfaceArg, Iface: iface, ArgIndex: d.ParamVar().ParamIndex}, true
	}
	if d.Kind == ir.StCall && d.Callee != "" && ab.G.Prog.IsAPI(d.Callee) {
		ab.APIs[d.Callee] = true
		return spec.Value{Kind: spec.VAPIRet, API: d.Callee}, true
	}
	if d.Kind == ir.StAssign {
		if lit, ok := d.RHS.(*cir.IntLit); ok {
			return spec.Value{Kind: spec.VLiteral, Lit: lit.Val}, true
		}
	}
	if d.Kind == ir.StReturn && d.X != nil {
		if lit, ok := d.X.(*cir.IntLit); ok {
			return spec.Value{Kind: spec.VLiteral, Lit: lit.Val}, true
		}
	}
	if depth == 0 {
		return spec.Value{}, false
	}
	preds := ab.G.PredEdges(d)
	for i := 0; i < preds.Len(); i++ {
		e := preds.At(i)
		if ab.Scope != nil && !ab.Scope[e.From.Fn] {
			continue
		}
		if v, ok := ab.valueFromDef(e.From, depth-1); ok {
			return v, true
		}
	}
	return spec.Value{}, false
}

// FilterLocalAtoms drops atoms over non-interaction symbols: the formula
// is normalized to NNF (no Not nodes), then local atoms are replaced by
// True, conservatively weakening the condition.
func FilterLocalAtoms(f solver.Formula) solver.Formula {
	return filterAtoms(solver.NNF(f))
}

func filterAtoms(f solver.Formula) solver.Formula {
	switch x := f.(type) {
	case solver.Atom:
		if atomHasLocalSym(x) {
			return solver.TrueF{}
		}
		return x
	case solver.And:
		fs := make([]solver.Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = filterAtoms(s)
		}
		return solver.MkAnd(fs...)
	case solver.Or:
		fs := make([]solver.Formula, len(x.Fs))
		for i, s := range x.Fs {
			fs[i] = filterAtoms(s)
		}
		return solver.MkOr(fs...)
	case solver.Not:
		// NNF input should not contain Not; degrade safely.
		return solver.TrueF{}
	}
	return f
}

func atomHasLocalSym(a solver.Atom) bool {
	return termHasLocalSym(a.A) || termHasLocalSym(a.B)
}

func termHasLocalSym(t solver.Term) bool {
	switch x := t.(type) {
	case solver.Sym:
		return strings.HasPrefix(x.Name, localSymPrefix)
	case solver.BinTerm:
		return termHasLocalSym(x.A) || termHasLocalSym(x.B)
	}
	return false
}

// MentionedAPIs returns the accumulated API context, sorted.
func (ab *Abstracter) MentionedAPIs() []string {
	out := make([]string, 0, len(ab.APIs))
	for a := range ab.APIs {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
