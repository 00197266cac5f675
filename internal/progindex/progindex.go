// Package progindex builds program-wide lookup structures over an
// ir.Program once, so that detection does not rescan every statement of
// every function for each (spec, region) pair. The index is immutable
// after Build and therefore safe to share across any number of concurrent
// detector workers; each worker counts the lookups it makes through its own
// Counting handle (reported through detect.Stats).
package progindex

import (
	"sort"

	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/ir"
)

// FuncIndex holds the per-function lookup structures.
type FuncIndex struct {
	// CallsByCallee maps a direct callee name to the call statements, in
	// statement order.
	CallsByCallee map[string][]*ir.Stmt
	// CalleeNames lists the distinct direct callee names in order of first
	// occurrence (used for the equivalent-post-operation hint).
	CalleeNames []string
	// DefinedCallees lists the distinct defined callees in order of first
	// occurrence (the expansion order of region closures).
	DefinedCallees []*ir.Func
	// IntLits maps an integer literal value to the assign/return statements
	// mentioning it, in statement order.
	IntLits map[int64][]*ir.Stmt
	// ParamDefs lists the entry parameter-definition nodes.
	ParamDefs []*ir.Stmt
	// ReadsGlobals records which globals the function reads directly (a
	// sound prefilter for the flow-based global-source scan: a function
	// without a syntactic read cannot have an unrooted use of the global).
	ReadsGlobals map[string]bool
}

// Index is the program-wide index.
type Index struct {
	prog    *ir.Program
	fns     map[*ir.Func]*FuncIndex
	callers map[string][]*ir.Func // callee name -> distinct calling funcs, sorted by name

	// tally, when set, counts the lookups served through this handle (see
	// Counting).
	tally *int64
}

// Counting returns a handle on the same index that counts every lookup
// served through it into n, so concurrent callers each know their own
// share. n is updated without synchronization: use the handle from one
// goroutine at a time.
func (ix *Index) Counting(n *int64) *Index {
	h := *ix
	h.tally = n
	return &h
}

func (ix *Index) count() {
	if ix.tally != nil {
		*ix.tally++
	}
}

// Build constructs the index for prog. It makes a single pass over every
// statement; everything it produces is deterministic (statement order and
// name order only).
func Build(prog *ir.Program) *Index {
	ix := &Index{
		prog:    prog,
		fns:     make(map[*ir.Func]*FuncIndex, len(prog.FuncList)),
		callers: make(map[string][]*ir.Func),
	}
	// Per-function first sightings, cleared for each function: a callee
	// name first seen in fn also makes fn one of its callers.
	calleeSeen := make(map[string]bool)
	definedSeen := make(map[*ir.Func]bool)
	for _, fn := range prog.FuncList {
		fi := &FuncIndex{
			CallsByCallee: make(map[string][]*ir.Stmt),
			IntLits:       make(map[int64][]*ir.Stmt),
			ReadsGlobals:  make(map[string]bool),
		}
		ix.fns[fn] = fi
		for _, ps := range fn.Entry.Stmts {
			if ps.IsParamDef() {
				fi.ParamDefs = append(fi.ParamDefs, ps)
			}
		}
		clear(calleeSeen)
		clear(definedSeen)
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				switch s.Kind {
				case ir.StCall:
					if s.Callee == "" {
						break
					}
					fi.CallsByCallee[s.Callee] = append(fi.CallsByCallee[s.Callee], s)
					if !calleeSeen[s.Callee] {
						calleeSeen[s.Callee] = true
						fi.CalleeNames = append(fi.CalleeNames, s.Callee)
						ix.callers[s.Callee] = append(ix.callers[s.Callee], fn)
					}
					if callee, ok := prog.Funcs[s.Callee]; ok && !definedSeen[callee] {
						definedSeen[callee] = true
						fi.DefinedCallees = append(fi.DefinedCallees, callee)
					}
				case ir.StAssign:
					if lit, ok := s.RHS.(*cir.IntLit); ok {
						fi.IntLits[lit.Val] = append(fi.IntLits[lit.Val], s)
					}
				case ir.StReturn:
					if lit, ok := s.X.(*cir.IntLit); ok {
						fi.IntLits[lit.Val] = append(fi.IntLits[lit.Val], s)
					}
				}
				for _, u := range dataflow.EffectiveUses(fn, s) {
					if u.Base.Kind == ir.VarGlobal && !u.HasDeref() {
						fi.ReadsGlobals[u.Base.Name] = true
					}
				}
			}
		}
	}
	for _, funcs := range ix.callers {
		sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })
	}
	return ix
}

// Func returns the per-function index (nil for functions not in the
// program).
func (ix *Index) Func(fn *ir.Func) *FuncIndex {
	ix.count()
	return ix.fns[fn]
}

// CallersOf returns the distinct functions containing a direct call to
// name, sorted by function name. The returned slice is shared — callers
// must not mutate it.
func (ix *Index) CallersOf(name string) []*ir.Func {
	ix.count()
	return ix.callers[name]
}
