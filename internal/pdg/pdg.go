// Package pdg assembles the Program Dependence Graph of paper Def. 6.1:
// nodes are IR statements; Ed (data dependence) comes from intra-procedural
// def-use chains plus inter-procedural actual/formal, return/receiver, and
// global store/load edges; Ec (control dependence) from post-dominance
// frontiers; Eo (flow order) from the CFG topological order. Construction
// is demand-driven per function (paper §7 "Demand-driven PDG Generation").
//
// A Graph is safe for concurrent use: Ensure is per-function single-flight
// (the first caller builds, everyone else waits on the build's done
// channel), the heavy analysis runs outside the graph lock, and edge lists
// are installed copy-on-write in a canonical order so query results are
// identical regardless of which goroutine built which function first.
//
// Storage is dense and pointer-free: each statement's successor and
// predecessor lists sit in slices indexed by the program-global Stmt.ID,
// and a stored edge is 16 bytes — statement IDs, an ID into the graph's
// append-only location table, its kind and argument index.
package pdg

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"seal/internal/callgraph"
	"seal/internal/cfg"
	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/ir"
	"seal/internal/solver"
)

// EdgeKind classifies data-dependence edges.
type EdgeKind int

// Edge kinds.
const (
	// EdgeIntra is an in-function def-use chain.
	EdgeIntra EdgeKind = iota
	// EdgeParam links a call site to a callee parameter-definition node.
	EdgeParam
	// EdgeReturn links a callee return to the call-site result.
	EdgeReturn
	// EdgeGlobal links a global store to a global load across functions.
	EdgeGlobal
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeIntra:
		return "intra"
	case EdgeParam:
		return "param"
	case EdgeReturn:
		return "return"
	case EdgeGlobal:
		return "global"
	}
	return "?"
}

// Edge is one data-dependence edge (Ed) of the PDG.
type Edge struct {
	From *ir.Stmt
	To   *ir.Stmt
	Loc  ir.Loc // the location carried (zero Loc for return edges)
	Kind EdgeKind
	// ArgIndex is the parameter position for EdgeParam edges.
	ArgIndex int
}

// Stats are the construction counters one caller charged through a
// Counting handle. EnsureCalls counts every Ensure invocation; EnsureBuilds
// counts the ones that actually materialized a function (at most one per
// function over the graph's lifetime, however many goroutines race).
type Stats struct {
	EnsureCalls  int64
	EnsureBuilds int64
	// BuildNanos is the wall time spent inside actual subgraph builds
	// (waiting on another goroutine's build is not counted). Builds are
	// heavyweight, so the two clock reads per build cost nothing.
	BuildNanos int64
}

// buildState is the single-flight slot of one function's construction.
type buildState struct {
	done chan struct{}
	// panicVal records a panic that aborted this build. It is written
	// before done is closed (the close is the happens-before edge), and
	// waiters re-panic with it: a crashing build must take down every
	// unit that needs the function — inside their own panic containment —
	// instead of deadlocking them on a never-closed channel.
	panicVal any
}

// Graph is the (demand-driven) PDG over a program.
type Graph struct {
	Prog *ir.Program
	PTS  *dataflow.PointsTo
	CG   *callgraph.Graph

	*state
	// tally, when set, charges every Ensure call and build made through
	// this handle to one caller (see Counting).
	tally *Stats
}

// state is the synchronized core every handle on one graph shares.
type state struct {
	// stmts is Prog.AllStmts(), indexed by Stmt.ID.
	stmts []*ir.Stmt

	// mu guards every field below. Builds claim their slot under the write
	// lock, run the heavy analysis unlocked, then install results under
	// the write lock again; queries take the read lock.
	mu   sync.RWMutex
	cfgs map[*ir.Func]*cfg.Info

	// succs[id] and preds[id] are statement id's edge lists, in canonical
	// order. A list is replaced wholesale, never changed in place, so a
	// reader may keep one outside the lock.
	succs [][]edge
	preds [][]edge
	// locs is the location table edges refer to by index; locs[0] is the
	// zero Loc. It only grows, and published entries never change, so a
	// reader may keep a slice header of it outside the lock. Indices
	// depend on build order: they never leave the package and nothing is
	// ordered by them. locIndex finds a Loc's index by its base.
	locs     []ir.Loc
	locIndex map[*ir.Var][]int32

	// unrooted[id] lists the reads of statement id that no definition
	// inside its function reaches, in use order (set when the function is
	// built).
	unrooted [][]ir.Loc

	// building tracks which functions' subgraphs are materialized or in
	// flight; waiters block on the slot's done channel.
	building map[*ir.Func]*buildState

	globalStores map[string][]*ir.Stmt     // global name -> store stmts
	globalLoads  map[string][]globalAccess // global name -> loads and their read Loc
}

// edge is the stored form of an Edge.
type edge struct {
	from, to int32 // Stmt.IDs
	loc      int32 // index into state.locs
	kind     uint8
	arg      uint16
}

// New creates a PDG manager for prog; per-function subgraphs are built on
// demand via Ensure.
func New(prog *ir.Program) *Graph {
	stmts := prog.AllStmts()
	return &Graph{
		Prog: prog,
		PTS:  dataflow.Analyze(prog),
		CG:   callgraph.Build(prog),
		state: &state{
			stmts:        stmts,
			cfgs:         make(map[*ir.Func]*cfg.Info),
			succs:        make([][]edge, len(stmts)),
			preds:        make([][]edge, len(stmts)),
			locs:         []ir.Loc{{}},
			locIndex:     make(map[*ir.Var][]int32),
			unrooted:     make([][]ir.Loc, len(stmts)),
			building:     make(map[*ir.Func]*buildState),
			globalStores: make(map[string][]*ir.Stmt),
			globalLoads:  make(map[string][]globalAccess),
		},
	}
}

// Counting returns a handle on the same graph that charges every Ensure
// call and build made through it — directly or by any accessor — to t, so
// concurrent callers each know exactly the work they caused. This is the
// only count of construction work: the graph keeps none of its own. t is
// updated without synchronization: use the handle from one goroutine at a
// time.
func (g *Graph) Counting(t *Stats) *Graph {
	return &Graph{Prog: g.Prog, PTS: g.PTS, CG: g.CG, state: g.state, tally: t}
}

// BuildAll materializes the PDG for every function (used by whole-corpus
// phases; patch processing uses Ensure on the patch-related region only).
func BuildAll(prog *ir.Program) *Graph {
	g := New(prog)
	for _, fn := range prog.FuncList {
		g.Ensure(fn)
	}
	return g
}

// Built reports whether fn's subgraph is fully materialized.
func (g *Graph) Built(fn *ir.Func) bool {
	g.mu.RLock()
	st, ok := g.building[fn]
	g.mu.RUnlock()
	if !ok {
		return false
	}
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// ResidentFuncs returns the number of function subgraphs currently
// materialized (completed builds only, in-flight ones excluded) — the
// residency figure a long-running service reports for its hot graph.
func (g *Graph) ResidentFuncs() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, st := range g.building {
		select {
		case <-st.done:
			if st.panicVal == nil {
				n++
			}
		default:
		}
	}
	return n
}

// Ensure materializes the PDG subgraph of fn (idempotent, safe for
// concurrent callers: exactly one goroutine builds, the rest wait).
func (g *Graph) Ensure(fn *ir.Func) {
	if fn == nil {
		return
	}
	if g.tally != nil {
		g.tally.EnsureCalls++
	}

	g.mu.RLock()
	st, ok := g.building[fn]
	g.mu.RUnlock()
	if ok {
		st.wait()
		return
	}

	g.mu.Lock()
	if st, ok := g.building[fn]; ok {
		g.mu.Unlock()
		st.wait()
		return
	}
	st = &buildState{done: make(chan struct{})}
	g.building[fn] = st
	g.mu.Unlock()

	func() {
		t0 := time.Now()
		defer func() {
			if g.tally != nil {
				g.tally.EnsureBuilds++
				g.tally.BuildNanos += time.Since(t0).Nanoseconds()
			}
			st.panicVal = recover()
			close(st.done)
		}()
		g.build(fn)
	}()
	if st.panicVal != nil {
		panic(st.panicVal)
	}
}

// wait blocks until the build completes, re-panicking if it crashed.
func (st *buildState) wait() {
	<-st.done
	if st.panicVal != nil {
		panic(st.panicVal)
	}
}

// EnsureBudget is Ensure with resource metering: the build's approximate
// cost is charged via step (an analysis-step sink, typically Budget.Step)
// before the single-flight slot is claimed, so an exhausted unit stops
// triggering new subgraph builds without ever leaving a half-built
// function in the shared substrate — budgets abort units, not builds.
func (g *Graph) EnsureBudget(fn *ir.Func, step func(int64) error) error {
	if fn == nil || step == nil {
		g.Ensure(fn)
		return nil
	}
	cost := int64(1)
	if !g.Built(fn) {
		cost += int64(fn.NumStmts())
	}
	if err := step(cost); err != nil {
		return err
	}
	g.Ensure(fn)
	return nil
}

// build runs the per-function analyses outside the graph lock and installs
// the results under it.
func (g *Graph) build(fn *ir.Func) {
	if fn.Prog != g.Prog {
		// Edges are indexed by the program's statement IDs.
		panic(fmt.Sprintf("pdg: %s belongs to another program", fn.Name))
	}
	ff := dataflow.FlowAnalyze(fn, g.PTS)
	ci := cfg.Analyze(fn)
	edges, accesses := g.funcEdges(fn)

	g.mu.Lock()
	defer g.mu.Unlock()
	g.cfgs[fn] = ci
	for _, u := range ff.Unrooted {
		g.unrooted[u.Use.ID] = append(g.unrooted[u.Use.ID], u.Loc)
	}
	edges = append(edges, g.linkGlobals(accesses)...)
	g.installEdges(ff.Deps, edges)
}

// globalAccess is one read or write of a global (through no deref) by a
// statement; loc is the location read (zero for writes).
type globalAccess struct {
	name  string
	stmt  *ir.Stmt
	loc   ir.Loc
	store bool
}

// funcEdges derives fn's inter-procedural edges that need no other
// function built: actual -> formal and return -> receiver edges to defined
// callees (immutable IR and the eager call graph suffice). It also lists
// fn's global accesses, which are linked across functions under the lock
// (linkGlobals). The intra-procedural Ed are fn's def-use chains, which
// installEdges reads as they are.
func (g *Graph) funcEdges(fn *ir.Func) ([]Edge, []globalAccess) {
	var edges []Edge
	var accesses []globalAccess
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == ir.StCall {
				edges = g.callEdges(edges, s)
			}
			for _, d := range dataflow.EffectiveDefs(fn, s) {
				if d.Base.Kind == ir.VarGlobal && !d.HasDeref() {
					accesses = append(accesses, globalAccess{name: d.Base.Name, stmt: s, store: true})
				}
			}
			for _, u := range dataflow.EffectiveUses(fn, s) {
				if u.Base.Kind == ir.VarGlobal && !u.HasDeref() {
					accesses = append(accesses, globalAccess{name: u.Base.Name, stmt: s, loc: u})
				}
			}
		}
	}
	return edges, accesses
}

// callEdges appends the parameter and return edges of call site s.
func (g *Graph) callEdges(edges []Edge, s *ir.Stmt) []Edge {
	for _, callee := range g.CG.CalleesOf(s) {
		// Parameter edges: call site -> parameter definition nodes.
		for _, ps := range callee.Entry.Stmts {
			if !ps.IsParamDef() {
				continue
			}
			pv := ps.ParamVar()
			if pv == nil || pv.ParamIndex >= len(s.Args) {
				continue
			}
			edges = append(edges, Edge{From: s, To: ps, Loc: ir.Loc{Base: pv}, Kind: EdgeParam, ArgIndex: pv.ParamIndex})
		}
		// Return edges: callee returns -> call site (its result def).
		if s.LHS != nil {
			for _, r := range callee.ReturnStmts() {
				if r.X != nil {
					edges = append(edges, Edge{From: r, To: s, Kind: EdgeReturn})
				}
			}
		}
	}
	return edges
}

// linkGlobals registers a function's global accesses and returns the
// store -> load edges they close with other functions' accesses. An edge
// carries the load's read location whichever side was registered first,
// as intra edges carry the use's. Callers hold g.mu.
func (g *Graph) linkGlobals(accesses []globalAccess) []Edge {
	var edges []Edge
	for _, a := range accesses {
		if a.store {
			if slices.Contains(g.globalStores[a.name], a.stmt) {
				continue
			}
			g.globalStores[a.name] = append(g.globalStores[a.name], a.stmt)
			for _, load := range g.globalLoads[a.name] {
				if load.stmt.Fn != a.stmt.Fn {
					edges = append(edges, Edge{From: a.stmt, To: load.stmt, Loc: load.loc, Kind: EdgeGlobal})
				}
			}
			continue
		}
		if slices.ContainsFunc(g.globalLoads[a.name], func(l globalAccess) bool { return l.stmt == a.stmt }) {
			continue
		}
		g.globalLoads[a.name] = append(g.globalLoads[a.name], a)
		for _, store := range g.globalStores[a.name] {
			if store.Fn != a.stmt.Fn {
				edges = append(edges, Edge{From: store, To: a.stmt, Loc: a.loc, Kind: EdgeGlobal})
			}
		}
	}
	return edges
}

// intern returns l's index in the location table, appending it if new.
// Callers hold g.mu.
func (st *state) intern(l ir.Loc) int32 {
	if l.Base == nil {
		return 0
	}
	for _, id := range st.locIndex[l.Base] {
		if st.locs[id].Equal(l) {
			return id
		}
	}
	id := int32(len(st.locs))
	st.locs = append(st.locs, l)
	st.locIndex[l.Base] = append(st.locIndex[l.Base], id)
	return id
}

// installEdges merges new edges — def-use chains as EdgeIntra, then edges
// — into the per-statement adjacency lists. Lists are rebuilt copy-on-write
// (readers may hold the old slices outside the lock) and kept in a
// canonical order, so the graph's shape does not depend on the order in
// which functions were built. Edges that compare equal are identical, so
// sorting needs no stability. Callers hold g.mu.
func (g *Graph) installEdges(deps []dataflow.DataDep, edges []Edge) {
	if len(deps)+len(edges) == 0 {
		return
	}
	packed := make([]edge, 0, len(deps)+len(edges))
	for _, d := range deps {
		packed = append(packed, edge{
			from: int32(d.Def.ID), to: int32(d.Use.ID), loc: g.intern(d.Loc), kind: uint8(EdgeIntra),
		})
	}
	for _, e := range edges {
		if e.ArgIndex > math.MaxUint16 {
			panic(fmt.Sprintf("pdg: parameter index %d of %s out of range", e.ArgIndex, e.To.Fn.Name))
		}
		packed = append(packed, edge{
			from: int32(e.From.ID), to: int32(e.To.ID), loc: g.intern(e.Loc),
			kind: uint8(e.Kind), arg: uint16(e.ArgIndex),
		})
	}
	bySucc := func(a, b edge) int { return g.compare(a, b) }
	byPred := func(a, b edge) int {
		if a.to != b.to {
			return int(a.to - b.to)
		}
		return g.compare(a, b)
	}
	slices.SortFunc(packed, bySucc)
	g.mergeRuns(g.succs, packed, func(e edge) int32 { return e.from }, bySucc)
	slices.SortFunc(packed, byPred)
	g.mergeRuns(g.preds, packed, func(e edge) int32 { return e.to }, byPred)
}

// mergeRuns merges each run of sorted edges sharing a key into lists[key].
func (g *Graph) mergeRuns(lists [][]edge, sorted []edge, key func(edge) int32, cmp func(a, b edge) int) {
	for len(sorted) > 0 {
		k := key(sorted[0])
		n := 1
		for n < len(sorted) && key(sorted[n]) == k {
			n++
		}
		old, add := lists[k], sorted[:n]
		out := make([]edge, 0, len(old)+n)
		for len(old) > 0 && len(add) > 0 {
			if cmp(add[0], old[0]) < 0 {
				out, add = append(out, add[0]), add[1:]
			} else {
				out, old = append(out, old[0]), old[1:]
			}
		}
		out = append(append(out, old...), add...)
		lists[k] = out
		sorted = sorted[n:]
	}
}

// compare is a total order on edges built from deterministic statement and
// variable IDs (assigned in lowering order, independent of build schedule)
// and location contents — never from location table indices.
func (st *state) compare(a, b edge) int {
	switch {
	case a.from != b.from:
		return int(a.from - b.from)
	case a.to != b.to:
		return int(a.to - b.to)
	case a.kind != b.kind:
		return int(a.kind) - int(b.kind)
	case a.arg != b.arg:
		return int(a.arg) - int(b.arg)
	case a.loc == b.loc:
		return 0
	}
	la, lb := st.locs[a.loc], st.locs[b.loc]
	ab, bb := -1, -1
	if la.Base != nil {
		ab = la.Base.ID
	}
	if lb.Base != nil {
		bb = lb.Base.ID
	}
	if ab != bb {
		return ab - bb
	}
	if len(la.Path) != len(lb.Path) {
		return len(la.Path) - len(lb.Path)
	}
	for i := range la.Path {
		if la.Path[i].Kind != lb.Path[i].Kind {
			return int(la.Path[i].Kind) - int(lb.Path[i].Kind)
		}
		if la.Path[i].Off != lb.Path[i].Off {
			if la.Path[i].Off < lb.Path[i].Off {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Edges is a read-only view of one statement's edge list, valid forever:
// the list it holds is never changed in place.
type Edges struct {
	list  []edge
	locs  []ir.Loc
	stmts []*ir.Stmt
}

// Len returns the number of edges.
func (v Edges) Len() int { return len(v.list) }

// At returns the i-th edge.
func (v Edges) At(i int) Edge {
	e := v.list[i]
	return Edge{
		From: v.stmts[e.from], To: v.stmts[e.to], Loc: v.locs[e.loc],
		Kind: EdgeKind(e.kind), ArgIndex: int(e.arg),
	}
}

// SuccEdges returns a view of the outgoing Ed edges of a statement.
func (g *Graph) SuccEdges(s *ir.Stmt) Edges {
	g.Ensure(s.Fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Edges{list: g.succs[s.ID], locs: g.locs, stmts: g.stmts}
}

// PredEdges returns a view of the incoming Ed edges of a statement.
func (g *Graph) PredEdges(s *ir.Stmt) Edges {
	g.Ensure(s.Fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Edges{list: g.preds[s.ID], locs: g.locs, stmts: g.stmts}
}

// Unrooted is a read-only view of the reads a function's statements make
// that no definition inside the function reaches: reads of parameters'
// pointees, globals, or uninitialized locals (dataflow.FuncFlow.Unrooted).
type Unrooted struct {
	locs [][]ir.Loc
}

// At returns the unrooted reads of s, in use order. s must belong to the
// function the view was taken for.
func (u Unrooted) At(s *ir.Stmt) []ir.Loc { return u.locs[s.ID] }

// Unrooted returns the unrooted reads of fn's statements.
func (g *Graph) Unrooted(fn *ir.Func) Unrooted {
	g.Ensure(fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return Unrooted{locs: g.unrooted}
}

// CFG returns the control-flow facts of fn.
func (g *Graph) CFG(fn *ir.Func) *cfg.Info {
	g.Ensure(fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.cfgs[fn]
}

// CtrlDeps returns the transitive control dependences (Ec closure) of s.
func (g *Graph) CtrlDeps(s *ir.Stmt) []cfg.CtrlDep {
	return g.CFG(s.Fn).StmtDeps(s)
}

// Order returns Ω(s): the topological flow order within s's function.
func (g *Graph) Order(s *ir.Stmt) int {
	return g.CFG(s.Fn).Order[s]
}

// PathCondition computes Ψ for a statement: the conjunction of the branch
// conditions governing its execution, as a solver formula with symbols
// named by expression spelling (stable across program versions).
func (g *Graph) PathCondition(s *ir.Stmt) solver.Formula {
	return g.PathConditionWith(s, nil)
}

// PathConditionWith is PathCondition with a custom leaf-naming function
// (e.g. qualifying symbols by function to avoid cross-function collisions).
func (g *Graph) PathConditionWith(s *ir.Stmt, leaf solver.LeafFn) solver.Formula {
	deps := g.CtrlDeps(s)
	var parts []solver.Formula
	for _, d := range deps {
		blk := d.Branch.Blk
		if d.EdgeIdx >= len(blk.EdgeConds) {
			continue
		}
		condExpr := blk.EdgeConds[d.EdgeIdx]
		if condExpr == nil {
			continue
		}
		f := solver.FromCond(condExpr, leaf)
		if blk.Negated[d.EdgeIdx] {
			f = solver.MkNot(f)
		}
		parts = append(parts, f)
	}
	return solver.MkAnd(parts...)
}

// QualifiedLeaf names condition symbols as "fn::expr", keeping symbols
// distinct across functions yet identical across program versions.
func QualifiedLeaf(fn *ir.Func) solver.LeafFn {
	return func(e cir.Expr) solver.Term {
		if lit, ok := e.(*cir.IntLit); ok {
			return solver.Const{Val: lit.Val}
		}
		return solver.Sym{Name: fn.Name + "::" + cir.ExprString(e)}
	}
}
