// Package dataflow implements the value-flow substrate of SEAL: a
// field-sensitive (byte-offset) Andersen-style points-to analysis and
// flow-sensitive reaching definitions producing def-use chains. Together
// they provide the data-dependence edges Ed of the PDG (paper Def. 6.1,
// §7 "Value-flow Analysis").
package dataflow

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"seal/internal/cir"
	"seal/internal/ir"
)

// ObjKind classifies abstract memory objects.
type ObjKind int

// Abstract object kinds.
const (
	// ObjVar is the storage of a named variable (local, param, global).
	ObjVar ObjKind = iota
	// ObjHeap is an allocation site (pointer-returning API call).
	ObjHeap
	// ObjSym is the symbolic pointee of a pointer parameter or pointer
	// global whose allocation is outside the analyzed region.
	ObjSym
)

// Object is an abstract memory object.
type Object struct {
	ID   int
	Kind ObjKind
	Var  *ir.Var  // ObjVar / ObjSym(param)
	Site *ir.Stmt // ObjHeap: the allocating call
	Name string
}

// String implements fmt.Stringer.
func (o *Object) String() string { return o.Name }

// Cell is a field-sensitive memory cell: an object plus a byte offset.
// Off == ir.AnyOff summarizes all offsets of the object.
type Cell struct {
	Obj *Object
	Off int
}

// String implements fmt.Stringer.
func (c Cell) String() string {
	if c.Off == ir.AnyOff {
		return c.Obj.Name + "[*]"
	}
	return fmt.Sprintf("%s+%d", c.Obj.Name, c.Off)
}

// CellSet is a set of cells. Cell is a comparable value (object identity
// is ID identity), so the cell itself is the key.
type CellSet map[Cell]struct{}

func (s CellSet) add(c Cell) bool {
	if _, ok := s[c]; ok {
		return false
	}
	s[c] = struct{}{}
	return true
}

// addCells adds every cell of cs and reports whether s changed.
func (s CellSet) addCells(cs []Cell) bool {
	changed := false
	for _, c := range cs {
		if s.add(c) {
			changed = true
		}
	}
	return changed
}

// appendTo appends the cells of s to dst, in map order.
func (s CellSet) appendTo(dst []Cell) []Cell {
	for c := range s {
		dst = append(dst, c)
	}
	return dst
}

// sortCells sorts cs by object ID, then offset, and drops duplicates in
// place: the deterministic order of resolved cells. Object IDs are unique
// within a PointsTo.
func sortCells(cs []Cell) []Cell {
	if len(cs) < 2 {
		return cs
	}
	slices.SortFunc(cs, func(a, b Cell) int {
		if a.Obj.ID != b.Obj.ID {
			return cmp.Compare(a.Obj.ID, b.Obj.ID)
		}
		return cmp.Compare(a.Off, b.Off)
	})
	return slices.Compact(cs)
}

// cellBuf is the stack array behind a query's or a transfer function's
// working cell list. The cells one access path denotes rarely outnumber
// it, so resolving a path allocates nothing; a longer list moves to the
// heap by append.
type cellBuf [8]Cell

// PointsTo is the whole-program points-to solution.
type PointsTo struct {
	prog *ir.Program

	varObj map[*ir.Var]*Object
	symObj map[*ir.Var]*Object  // pointee of pointer params/globals
	heap   map[*ir.Stmt]*Object // per allocation site
	nextID int

	// pts maps pointer cells to their pointees.
	pts map[Cell]CellSet
	// cellIndex remembers every cell seen per object for AnyOff expansion.
	cellIndex map[int]map[int]bool

	// frozen flips after solve: every map above becomes read-only so the
	// solution can be queried from many goroutines at once. Variables not
	// prepopulated before the freeze (only synthetic query-time vars) get
	// objects from lateVarObj under mu.
	frozen     bool
	mu         sync.Mutex
	lateVarObj map[*ir.Var]*Object
	lateNextID int
}

// AllocAPIs lists default pointer-returning allocation APIs; any external
// API with a pointer return type is treated as an allocation site anyway,
// this set only controls naming.
var AllocAPIs = map[string]bool{
	"kmalloc": true, "kzalloc": true, "kcalloc": true,
	"dma_alloc_coherent": true, "vmalloc": true, "devm_kzalloc": true,
}

// Analyze computes the points-to solution for the program.
func Analyze(prog *ir.Program) *PointsTo {
	pt := &PointsTo{
		prog:      prog,
		varObj:    make(map[*ir.Var]*Object),
		symObj:    make(map[*ir.Var]*Object),
		heap:      make(map[*ir.Stmt]*Object),
		pts:       make(map[Cell]CellSet),
		cellIndex: make(map[int]map[int]bool),
	}
	pt.seed()
	pt.solve()
	pt.freeze()
	return pt
}

// freeze prepopulates the storage object of every program variable and
// switches the solution to read-only mode. After the freeze, queries
// (MayAlias, CellsOf, PointeeString) never mutate shared maps, so one
// PointsTo can back any number of concurrent PDG builds. Post-solve object
// creation would only ever install empty points-to sets, so skipping the
// inserts leaves query results unchanged.
func (pt *PointsTo) freeze() {
	for _, g := range pt.prog.GlobalVars {
		pt.objOfVar(g)
	}
	for _, fn := range pt.prog.FuncList {
		for _, v := range fn.Params {
			pt.objOfVar(v)
		}
		for _, v := range fn.Locals {
			pt.objOfVar(v)
		}
	}
	pt.lateVarObj = make(map[*ir.Var]*Object)
	pt.lateNextID = pt.nextID
	pt.frozen = true
}

func (pt *PointsTo) newObject(kind ObjKind, name string) *Object {
	o := &Object{ID: pt.nextID, Kind: kind, Name: name}
	pt.nextID++
	return o
}

// objOfVar returns the storage object of a variable.
func (pt *PointsTo) objOfVar(v *ir.Var) *Object {
	if o, ok := pt.varObj[v]; ok {
		return o
	}
	prefix := ""
	if v.Fn != nil {
		prefix = v.Fn.Name + "."
	}
	if pt.frozen {
		// Only synthetic query-time variables (never part of the program)
		// miss the prepopulated map; they have no points-to facts, so the
		// object just provides identity for the duration of the query.
		pt.mu.Lock()
		defer pt.mu.Unlock()
		if o, ok := pt.lateVarObj[v]; ok {
			return o
		}
		o := &Object{ID: pt.lateNextID, Kind: ObjVar, Var: v, Name: prefix + v.Name}
		pt.lateNextID++
		pt.lateVarObj[v] = o
		return o
	}
	o := pt.newObject(ObjVar, prefix+v.Name)
	o.Var = v
	pt.varObj[v] = o
	return o
}

// symOfVar returns the symbolic pointee object of a pointer variable.
func (pt *PointsTo) symOfVar(v *ir.Var) *Object {
	if o, ok := pt.symObj[v]; ok {
		return o
	}
	prefix := ""
	if v.Fn != nil {
		prefix = v.Fn.Name + "."
	}
	o := pt.newObject(ObjSym, "*"+prefix+v.Name)
	o.Var = v
	pt.symObj[v] = o
	return o
}

func (pt *PointsTo) heapOf(s *ir.Stmt) *Object {
	if o, ok := pt.heap[s]; ok {
		return o
	}
	o := pt.newObject(ObjHeap, fmt.Sprintf("heap@%s:%d", s.Callee, s.Line))
	o.Site = s
	pt.heap[s] = o
	return o
}

func (pt *PointsTo) get(c Cell) CellSet {
	if s, ok := pt.pts[c]; ok {
		return s
	}
	if pt.frozen {
		// Read-only mode: a missing cell has an empty points-to set, and
		// callers on the query paths only read the result. A nil CellSet
		// ranges and lookups as empty.
		return nil
	}
	s := make(CellSet)
	pt.pts[c] = s
	pt.noteCell(c)
	return s
}

func (pt *PointsTo) noteCell(c Cell) {
	if pt.frozen {
		return
	}
	m := pt.cellIndex[c.Obj.ID]
	if m == nil {
		m = make(map[int]bool)
		pt.cellIndex[c.Obj.ID] = m
	}
	m[c.Off] = true
}

// seed installs base facts: symbolic pointees for pointer params and
// pointer globals.
func (pt *PointsTo) seed() {
	for _, fn := range pt.prog.FuncList {
		for _, v := range fn.Params {
			if v.Type.IsPtr() {
				pt.get(Cell{Obj: pt.objOfVar(v)}).add(Cell{Obj: pt.symOfVar(v)})
			}
		}
	}
	for _, g := range pt.prog.GlobalVars {
		if g.Type.IsPtr() {
			pt.get(Cell{Obj: pt.objOfVar(g)}).add(Cell{Obj: pt.symOfVar(g)})
		}
	}
}

// solve iterates transfer functions over all statements to a fixpoint.
func (pt *PointsTo) solve() {
	for changed := true; changed; {
		changed = false
		for _, fn := range pt.prog.FuncList {
			for _, b := range fn.Blocks {
				for _, s := range b.Stmts {
					if pt.transfer(fn, s) {
						changed = true
					}
				}
			}
		}
	}
}

func (pt *PointsTo) transfer(fn *ir.Func, s *ir.Stmt) bool {
	switch s.Kind {
	case ir.StAssign:
		if s.LHS == nil {
			return false
		}
		lv, _, ok := fn.LvalLoc(s.LHS)
		if !ok {
			return false
		}
		var buf cellBuf
		src := pt.evalPtr(fn, s.RHS, buf[:0])
		return len(src) > 0 && pt.storeTo(fn, lv, src)
	case ir.StCall:
		changed := false
		// Result binding.
		if s.LHS != nil {
			lv, _, ok := fn.LvalLoc(s.LHS)
			if ok {
				if callee, isDef := pt.prog.Funcs[s.Callee]; isDef && s.Callee != "" {
					// Link all returned pointer values.
					var buf cellBuf
					src := buf[:0]
					for _, b := range callee.Blocks {
						for _, ret := range b.Stmts {
							if ret.Kind != ir.StReturn || ret.X == nil {
								continue
							}
							src = pt.evalPtr(callee, ret.X, src[:0])
							if pt.storeTo(fn, lv, src) {
								changed = true
							}
						}
					}
				} else if retTypeIsPtr(pt.prog, s) {
					// External pointer-returning API: allocation site.
					src := [1]Cell{{Obj: pt.heapOf(s)}}
					if pt.storeTo(fn, lv, src[:]) {
						changed = true
					}
				}
			}
		}
		// Parameter binding for defined callees.
		if callee, isDef := pt.prog.Funcs[s.Callee]; isDef && s.Callee != "" {
			var buf cellBuf
			src := buf[:0]
			for i, arg := range s.Args {
				if i >= len(callee.Params) {
					break
				}
				formal := callee.Params[i]
				if !formal.Type.IsPtr() {
					continue
				}
				src = pt.evalPtr(fn, arg, src[:0])
				if len(src) == 0 {
					continue
				}
				dst := pt.get(Cell{Obj: pt.objOfVar(formal)})
				if dst.addCells(src) {
					changed = true
				}
			}
		}
		return changed
	}
	return false
}

func retTypeIsPtr(prog *ir.Program, s *ir.Stmt) bool {
	if s.Callee == "" {
		return false
	}
	if proto, ok := prog.Protos[s.Callee]; ok {
		return proto.Ret.IsPtr()
	}
	return false
}

// storeTo unions src into the cells addressed by lv.
func (pt *PointsTo) storeTo(fn *ir.Func, lv ir.Loc, src []Cell) bool {
	var buf cellBuf
	changed := false
	for _, c := range pt.resolveLoc(fn, lv, buf[:0]) {
		if pt.get(c).addCells(src) {
			changed = true
		}
	}
	return changed
}

// cellsOfLoc resolves an access path to the set of cells it denotes: the
// set form of resolveLoc, which the reference alias oracle queries.
func (pt *PointsTo) cellsOfLoc(fn *ir.Func, l ir.Loc) CellSet {
	out := make(CellSet)
	for _, c := range pt.resolveLoc(fn, l, nil) {
		out.add(c)
	}
	return out
}

// resolveLoc appends the cells an access path denotes to dst, sorted by
// object ID and offset, without duplicates. Each step reads the previous
// step's cells from one stack list and writes the next.
func (pt *PointsTo) resolveLoc(fn *ir.Func, l ir.Loc, dst []Cell) []Cell {
	base := Cell{Obj: pt.objOfVar(l.Base)}
	if len(l.Path) == 0 {
		pt.noteCell(base)
		return append(dst, base)
	}
	var bc, bn cellBuf
	cur, next := append(bc[:0], base), bn[:0]
	for _, st := range l.Path {
		next = next[:0]
		switch st.Kind {
		case ir.StepOff:
			for _, c := range cur {
				off := c.Off
				if off == ir.AnyOff || st.Off == ir.AnyOff {
					off = ir.AnyOff
				} else {
					off += st.Off
				}
				next = append(next, Cell{Obj: c.Obj, Off: off})
			}
		case ir.StepDeref:
			for _, c := range cur {
				next = pt.lookup(c, next)
			}
		}
		cur, next = sortCells(next), cur
	}
	for _, c := range cur {
		pt.noteCell(c)
	}
	return append(dst, cur...)
}

// lookup appends the pts of a cell to dst, expanding AnyOff wildcards in
// both directions. The appended cells may repeat.
func (pt *PointsTo) lookup(c Cell, dst []Cell) []Cell {
	dst = pt.get(c).appendTo(dst)
	if c.Off == ir.AnyOff {
		// Summary read: union over all recorded offsets of the object.
		for off := range pt.cellIndex[c.Obj.ID] {
			if off == ir.AnyOff {
				continue
			}
			dst = pt.get(Cell{Obj: c.Obj, Off: off}).appendTo(dst)
		}
	} else {
		// A concrete read also sees the object's summary cell.
		dst = pt.get(Cell{Obj: c.Obj, Off: ir.AnyOff}).appendTo(dst)
	}
	return dst
}

// evalPtr appends the cells a pointer-valued expression may hold to dst.
// The appended cells may repeat.
func (pt *PointsTo) evalPtr(fn *ir.Func, e cir.Expr, dst []Cell) []Cell {
	switch x := e.(type) {
	case nil:
		return dst
	case *cir.Ident:
		if v := fn.VarByName(x.Name); v != nil {
			dst = pt.lookup(Cell{Obj: pt.objOfVar(v)}, dst)
		}
		return dst
	case *cir.UnaryExpr:
		if x.Op == cir.TokAmp {
			// Address-of: the cells of the lvalue path themselves.
			if lv, _, ok := fn.LvalLoc(x.X); ok {
				return pt.resolveLoc(fn, lv, dst)
			}
			return dst
		}
		if x.Op == cir.TokStar {
			if lv, _, ok := fn.LvalLoc(x); ok {
				return pt.readLoc(fn, lv, dst)
			}
		}
		return pt.evalPtr(fn, x.X, dst)
	case *cir.FieldExpr, *cir.IndexExpr:
		if lv, _, ok := fn.LvalLoc(e); ok {
			return pt.readLoc(fn, lv, dst)
		}
		return dst
	case *cir.CastExpr:
		return pt.evalPtr(fn, x.X, dst)
	case *cir.CondExpr:
		return pt.evalPtr(fn, x.Else, pt.evalPtr(fn, x.Then, dst))
	case *cir.BinaryExpr:
		// Pointer arithmetic: propagate base pointers.
		return pt.evalPtr(fn, x.Y, pt.evalPtr(fn, x.X, dst))
	}
	return dst
}

// readLoc appends the pointer values stored at an access path to dst.
func (pt *PointsTo) readLoc(fn *ir.Func, l ir.Loc, dst []Cell) []Cell {
	var buf cellBuf
	for _, c := range pt.resolveLoc(fn, l, buf[:0]) {
		dst = pt.lookup(c, dst)
	}
	return dst
}

// CellsOf exposes access-path resolution for other analyses.
func (pt *PointsTo) CellsOf(fn *ir.Func, l ir.Loc) []Cell {
	var buf cellBuf
	cells := pt.resolveLoc(fn, l, buf[:0])
	out := make([]Cell, len(cells))
	copy(out, cells)
	return out
}

// overlaps reports whether two resolved access paths (CellsOf) may denote
// overlapping memory: some pair of cells shares the object and has equal
// offsets, or either side is the AnyOff summary.
func overlaps(c1, c2 []Cell) bool {
	for _, a := range c1 {
		for _, b := range c2 {
			if a.Obj != b.Obj {
				continue
			}
			if a.Off == b.Off || a.Off == ir.AnyOff || b.Off == ir.AnyOff {
				return true
			}
		}
	}
	return false
}

// MayAlias reports whether two access paths may denote overlapping memory.
// It is the one-off query; FlowAnalyze resolves each path of a function
// once and applies the same overlap rule to the memoized cells.
func (pt *PointsTo) MayAlias(fn1 *ir.Func, l1 ir.Loc, fn2 *ir.Func, l2 ir.Loc) bool {
	return overlaps(pt.CellsOf(fn1, l1), pt.CellsOf(fn2, l2))
}

// PointeeString renders the points-to set of a variable for debugging.
func (pt *PointsTo) PointeeString(fn *ir.Func, name string) string {
	v := fn.VarByName(name)
	if v == nil {
		return "<unknown var>"
	}
	var parts []string
	for _, c := range sortCells(pt.lookup(Cell{Obj: pt.objOfVar(v)}, nil)) {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, ", ")
}
