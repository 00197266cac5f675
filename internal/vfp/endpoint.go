// Package vfp implements value-flow paths (paper Def. 6.2): slicing over
// the PDG's data-dependence edges from slicing criteria, terminating at
// interaction data (paper §6.2.2), with per-path conditions Ψ and flow
// orders Ω. Paths are the unit of PDG differentiation and bug detection.
package vfp

import (
	"fmt"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/pdg"
)

// EPKind classifies path endpoints into the specification domains V
// (sources) and U (uses) of paper Fig. 2.
type EPKind int

// Endpoint kinds.
const (
	// SrcParam: an incoming argument of the enclosing function (argⁱ when
	// the function implements an interface).
	SrcParam EPKind = iota
	// SrcAPIRet: the return value of an external API (ret^f).
	SrcAPIRet
	// SrcGlobal: a global variable read (g).
	SrcGlobal
	// SrcLiteral: a constant (l), e.g. the error code -ENOMEM.
	SrcLiteral
	// SrcUninit: a read of a never-initialized local (uninitialized-value
	// evidence).
	SrcUninit

	// SnkAPIArg: the value is passed to an external API as argument k
	// (arg^f).
	SnkAPIArg
	// SnkIfaceRet: the value is returned by an interface implementation
	// (retⁱ).
	SnkIfaceRet
	// SnkGlobalStore: the value is stored to a global (g as outgoing data).
	SnkGlobalStore
	// SnkDeref: the value is dereferenced (deref).
	SnkDeref
	// SnkIndex: the value indexes/offsets into memory (array access).
	SnkIndex
	// SnkDiv: the value is used as a divisor (div).
	SnkDiv
	// SnkParamStore: the value is stored through a pointer parameter of an
	// interface implementation — outgoing interaction data, like writes to
	// caller-visible buffers.
	SnkParamStore
)

// String implements fmt.Stringer.
func (k EPKind) String() string {
	switch k {
	case SrcParam:
		return "param"
	case SrcAPIRet:
		return "api-ret"
	case SrcGlobal:
		return "global"
	case SrcLiteral:
		return "literal"
	case SrcUninit:
		return "uninit"
	case SnkAPIArg:
		return "api-arg"
	case SnkIfaceRet:
		return "iface-ret"
	case SnkGlobalStore:
		return "global-store"
	case SnkDeref:
		return "deref"
	case SnkIndex:
		return "index"
	case SnkDiv:
		return "div"
	case SnkParamStore:
		return "param-store"
	}
	return "?"
}

// Endpoint is a classified path end: a source (interaction datum) or a
// sink (ultimate use).
type Endpoint struct {
	Kind       EPKind
	Stmt       *ir.Stmt
	Fn         *ir.Func
	ParamIndex int    // SrcParam
	API        string // SrcAPIRet / SnkAPIArg
	ArgIndex   int    // SnkAPIArg
	Global     string // SrcGlobal / SnkGlobalStore
	Lit        int64  // SrcLiteral
	Loc        ir.Loc // access path at the endpoint (field info)
}

// Key is a version-independent identity for the endpoint (no line numbers,
// no pointer identity).
func (e Endpoint) Key() string {
	switch e.Kind {
	case SrcParam:
		return fmt.Sprintf("param:%s#%d", e.Fn.Name, e.ParamIndex)
	case SrcAPIRet:
		return "apiret:" + e.API
	case SrcGlobal:
		return "global:" + e.Global
	case SrcLiteral:
		return fmt.Sprintf("lit:%d", e.Lit)
	case SrcUninit:
		return fmt.Sprintf("uninit:%s.%s", e.Fn.Name, e.Loc.Base.Name)
	case SnkAPIArg:
		return fmt.Sprintf("apiarg:%s#%d", e.API, e.ArgIndex)
	case SnkIfaceRet:
		return "ifaceret:" + e.Fn.Name
	case SnkGlobalStore:
		return "gstore:" + e.Global
	case SnkDeref:
		return "deref:" + e.Fn.Name
	case SnkIndex:
		return "index:" + e.Fn.Name
	case SnkDiv:
		return "div:" + e.Fn.Name
	case SnkParamStore:
		return fmt.Sprintf("pstore:%s#%d", e.Fn.Name, e.ParamIndex)
	}
	return "?"
}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	return fmt.Sprintf("%s(%s)@%d", e.Kind, e.detail(), e.Stmt.Line)
}

func (e Endpoint) detail() string {
	switch e.Kind {
	case SrcParam:
		return fmt.Sprintf("%s arg%d", e.Fn.Name, e.ParamIndex)
	case SrcAPIRet:
		return e.API
	case SrcGlobal, SnkGlobalStore:
		return e.Global
	case SrcLiteral:
		return fmt.Sprintf("%d", e.Lit)
	case SrcUninit:
		return e.Loc.Base.Name
	case SnkAPIArg:
		return fmt.Sprintf("%s arg%d", e.API, e.ArgIndex)
	case SnkIfaceRet:
		return e.Fn.Name
	default:
		return e.Fn.Name
	}
}

// classifySource decides whether stmt terminates a backward slice as a
// value source (paper §6.2.2: "the sources of our collected paths are
// input data from interfaces").
func classifySource(g *pdg.Graph, s *ir.Stmt) (Endpoint, bool) {
	if s.IsParamDef() {
		v := s.ParamVar()
		return Endpoint{Kind: SrcParam, Stmt: s, Fn: s.Fn, ParamIndex: v.ParamIndex, Loc: ir.Loc{Base: v}}, true
	}
	if s.Kind == ir.StCall && s.Callee != "" && g.Prog.IsAPI(s.Callee) && s.LHS != nil {
		return Endpoint{Kind: SrcAPIRet, Stmt: s, Fn: s.Fn, API: s.Callee}, true
	}
	if s.Kind == ir.StAssign {
		if lit, ok := s.RHS.(*cir.IntLit); ok {
			return Endpoint{Kind: SrcLiteral, Stmt: s, Fn: s.Fn, Lit: lit.Val}, true
		}
	}
	if s.Kind == ir.StReturn && s.X != nil {
		if lit, ok := s.X.(*cir.IntLit); ok {
			return Endpoint{Kind: SrcLiteral, Stmt: s, Fn: s.Fn, Lit: lit.Val}, true
		}
	}
	return Endpoint{}, false
}

// classifyRootless classifies a statement whose read of loc has no reaching
// definition: a global read or an uninitialized-local read acts as source.
func classifyRootless(s *ir.Stmt, loc ir.Loc) (Endpoint, bool) {
	if loc.Base.Kind == ir.VarGlobal {
		return Endpoint{Kind: SrcGlobal, Stmt: s, Fn: s.Fn, Global: loc.Base.Name, Loc: loc}, true
	}
	if loc.Base.Kind == ir.VarLocal && !loc.Base.Initialized {
		return Endpoint{Kind: SrcUninit, Stmt: s, Fn: s.Fn, Loc: loc}, true
	}
	if loc.Base.Kind == ir.VarParam {
		return Endpoint{Kind: SrcParam, Stmt: s, Fn: s.Fn, ParamIndex: loc.Base.ParamIndex, Loc: loc}, true
	}
	return Endpoint{}, false
}

// classifySinks lists the ultimate-use roles stmt plays for a value
// arriving via useLoc (paper §6.2.2: "sinks are output data or sensitive
// operations").
func classifySinks(g *pdg.Graph, s *ir.Stmt, useLoc ir.Loc) []Endpoint {
	var out []Endpoint
	switch s.Kind {
	case ir.StCall:
		if s.Callee != "" && g.Prog.IsAPI(s.Callee) {
			for i, a := range s.Args {
				if argReadsLoc(s.Fn, a, useLoc) {
					out = append(out, Endpoint{Kind: SnkAPIArg, Stmt: s, Fn: s.Fn, API: s.Callee, ArgIndex: i, Loc: useLoc})
				}
			}
		}
	case ir.StReturn:
		if len(g.Prog.InterfacesOf(s.Fn)) > 0 {
			out = append(out, Endpoint{Kind: SnkIfaceRet, Stmt: s, Fn: s.Fn, Loc: useLoc})
		}
	case ir.StAssign:
		if len(s.Defs) > 0 && s.Defs[0].Base.Kind == ir.VarGlobal {
			out = append(out, Endpoint{Kind: SnkGlobalStore, Stmt: s, Fn: s.Fn, Global: s.Defs[0].Base.Name, Loc: useLoc})
		}
		// Stores through pointer parameters are outgoing interaction data.
		if len(s.Defs) > 0 && s.Defs[0].Base.Kind == ir.VarParam && s.Defs[0].HasDeref() &&
			s.Defs[0].Base != useLoc.Base {
			out = append(out, Endpoint{
				Kind: SnkParamStore, Stmt: s, Fn: s.Fn,
				ParamIndex: s.Defs[0].Base.ParamIndex, Loc: useLoc,
			})
		}
	}
	// Sensitive operations: dereference / index / division. A use loc that
	// itself goes through memory is a read of the tracked pointee (the NPD
	// and use-after-free site class); a longer same-base use extending the
	// loc by a deref is an explicit dereference of the tracked pointer.
	// Branch statements are excluded: a read inside a condition is a
	// check of the value, not a sensitive use of it.
	if s.Kind != ir.StBranch && s.Kind != ir.StSwitch {
		if derefKind, ok := derefUse(s, useLoc); ok {
			out = append(out, Endpoint{Kind: derefKind, Stmt: s, Fn: s.Fn, Loc: useLoc})
		}
		if divisorUse(s, useLoc) {
			out = append(out, Endpoint{Kind: SnkDiv, Stmt: s, Fn: s.Fn, Loc: useLoc})
		}
	}
	return out
}

// argReadsLoc reports whether an argument expression reads useLoc (directly
// or as the exposed pointee).
func argReadsLoc(fn *ir.Func, arg cir.Expr, useLoc ir.Loc) bool {
	for _, u := range fn.UsesOf(arg) {
		if u.Base == useLoc.Base && u.SameShape(useLoc) {
			return true
		}
	}
	// &x arguments expose x's storage: match the address-of base path.
	if ue, ok := arg.(*cir.UnaryExpr); ok && ue.Op == cir.TokAmp {
		if lv, _, ok := fn.LvalLoc(ue.X); ok {
			if lv.Base == useLoc.Base {
				return true
			}
		}
	}
	// Pointer arguments expose their pointee.
	if lv, _, ok := fn.LvalLoc(arg); ok && fn.TypeOf(arg).IsPtr() {
		if lv.Base == useLoc.Base {
			return true
		}
	}
	return false
}

// derefUse reports whether s dereferences the value arriving at useLoc:
// either the use path itself goes through memory, or a longer path of the
// same base extends it by a deref.
func derefUse(s *ir.Stmt, useLoc ir.Loc) (EPKind, bool) {
	if useLoc.HasDeref() {
		anyIdx := false
		for _, st := range useLoc.Path {
			if st.Kind == ir.StepOff && st.Off == ir.AnyOff {
				anyIdx = true
			}
		}
		if anyIdx {
			return SnkIndex, true
		}
		return SnkDeref, true
	}
	check := func(l ir.Loc) (EPKind, bool) {
		if l.Base != useLoc.Base {
			return 0, false
		}
		if len(l.Path) <= len(useLoc.Path) {
			return 0, false
		}
		for i := range useLoc.Path {
			if l.Path[i] != useLoc.Path[i] {
				return 0, false
			}
		}
		// The extension must start with a deref of the tracked value.
		ext := l.Path[len(useLoc.Path):]
		if ext[0].Kind != ir.StepDeref {
			return 0, false
		}
		for _, st := range ext {
			if st.Kind == ir.StepOff && st.Off == ir.AnyOff {
				return SnkIndex, true
			}
		}
		return SnkDeref, true
	}
	for _, l := range s.Uses {
		if k, ok := check(l); ok {
			return k, true
		}
	}
	for _, l := range s.Defs {
		if k, ok := check(l); ok {
			return k, true
		}
	}
	return 0, false
}

// divisorUse reports whether the value at useLoc is used as a divisor in s.
func divisorUse(s *ir.Stmt, useLoc ir.Loc) bool {
	exprs := []cir.Expr{s.RHS, s.X}
	exprs = append(exprs, s.Args...)
	found := false
	var walk func(e cir.Expr)
	walk = func(e cir.Expr) {
		if found || e == nil {
			return
		}
		switch x := e.(type) {
		case *cir.BinaryExpr:
			if x.Op == cir.TokSlash || x.Op == cir.TokPercent {
				for _, u := range s.Fn.UsesOf(x.Y) {
					if u.Base == useLoc.Base && u.SameShape(useLoc) {
						found = true
						return
					}
				}
			}
			walk(x.X)
			walk(x.Y)
		case *cir.UnaryExpr:
			walk(x.X)
		case *cir.CondExpr:
			walk(x.Cond)
			walk(x.Then)
			walk(x.Else)
		case *cir.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *cir.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *cir.FieldExpr:
			walk(x.X)
		case *cir.CastExpr:
			walk(x.X)
		}
	}
	for _, e := range exprs {
		walk(e)
	}
	return found
}
