// Package callgraph builds the program call graph. Direct calls resolve by
// name; indirect calls through function pointers resolve with a multi-layer
// type analysis analogue: the (struct type, field name) pair of the loaded
// function pointer selects exactly the functions registered for that field
// in ops tables, falling back to signature matching when the struct type is
// unknown (paper §6.4.1, §7 "Indirect calls are resolved by type analysis").
package callgraph

import (
	"sort"

	"seal/internal/cir"
	"seal/internal/ir"
)

// Graph is the call graph.
type Graph struct {
	Prog *ir.Program

	// Callees maps each call statement to its possible targets (defined
	// functions only; external APIs have no body to enter).
	Callees map[*ir.Stmt][]*ir.Func
	// CallerSites maps each defined function to the call statements that
	// may invoke it.
	CallerSites map[*ir.Func][]*ir.Stmt

	// byField indexes ops-table registrations: struct -> field -> impls.
	byField map[string]map[string][]*ir.Func
	// bySig indexes ops-registered functions by signature key.
	bySig map[string][]*ir.Func
}

// Build constructs the call graph for prog.
func Build(prog *ir.Program) *Graph {
	g := &Graph{
		Prog:        prog,
		Callees:     make(map[*ir.Stmt][]*ir.Func),
		CallerSites: make(map[*ir.Func][]*ir.Stmt),
		byField:     make(map[string]map[string][]*ir.Func),
		bySig:       make(map[string][]*ir.Func),
	}
	for _, oa := range prog.OpsAssigns {
		fn, ok := prog.Funcs[oa.FuncName]
		if !ok {
			continue
		}
		m := g.byField[oa.StructName]
		if m == nil {
			m = make(map[string][]*ir.Func)
			g.byField[oa.StructName] = m
		}
		if !containsFunc(m[oa.FieldName], fn) {
			m[oa.FieldName] = append(m[oa.FieldName], fn)
		}
		key := cir.SigString(fn.Decl.Sig())
		if !containsFunc(g.bySig[key], fn) {
			g.bySig[key] = append(g.bySig[key], fn)
		}
	}
	for _, fn := range prog.FuncList {
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				if s.Kind != ir.StCall {
					continue
				}
				targets := g.resolve(fn, s)
				g.Callees[s] = targets
				for _, t := range targets {
					g.CallerSites[t] = append(g.CallerSites[t], s)
				}
			}
		}
	}
	return g
}

func containsFunc(fns []*ir.Func, fn *ir.Func) bool {
	for _, f := range fns {
		if f == fn {
			return true
		}
	}
	return false
}

func (g *Graph) resolve(fn *ir.Func, s *ir.Stmt) []*ir.Func {
	if s.Callee != "" {
		if target, ok := g.Prog.Funcs[s.Callee]; ok {
			return []*ir.Func{target}
		}
		return nil // external API
	}
	// Indirect: field-typed function pointer.
	if fe, ok := s.CalleeExpr.(*cir.FieldExpr); ok {
		baseT := fn.TypeOf(fe.X)
		st := baseT
		if fe.Arrow {
			if baseT.IsPtr() {
				st = baseT.Elem
			} else {
				st = nil
			}
		}
		if st.IsStruct() && st.Struct != nil {
			if impls := g.byField[st.Struct.Name][fe.Name]; len(impls) > 0 {
				return sortedFuncs(impls)
			}
		}
	}
	// Fallback: signature-based resolution over ops-registered functions.
	t := fn.TypeOf(s.CalleeExpr)
	if t.IsFuncPtr() {
		if impls := g.bySig[cir.SigString(t.Elem.Sig)]; len(impls) > 0 {
			return sortedFuncs(impls)
		}
	}
	return nil
}

func sortedFuncs(fns []*ir.Func) []*ir.Func {
	out := append([]*ir.Func{}, fns...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CalleesOf returns the possible targets of a call statement.
func (g *Graph) CalleesOf(s *ir.Stmt) []*ir.Func { return g.Callees[s] }

// CallersOf returns the call sites that may invoke fn.
func (g *Graph) CallersOf(fn *ir.Func) []*ir.Stmt { return g.CallerSites[fn] }
