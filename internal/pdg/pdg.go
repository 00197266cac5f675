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
package pdg

import (
	"sort"
	"sync"
	"sync/atomic"
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

// Stats are cumulative construction counters of one Graph, read via
// Graph.Stats. EnsureCalls counts every Ensure invocation; EnsureBuilds
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
	// tally, when set, additionally charges every Ensure call and build made
	// through this handle to one caller (see Counting).
	tally *Stats
}

// state is the synchronized core every handle on one graph shares.
type state struct {
	ensureCalls  atomic.Int64
	ensureBuilds atomic.Int64
	buildNanos   atomic.Int64

	// mu guards every map below. Builds claim their slot under the write
	// lock, run the heavy analysis unlocked, then install results under
	// the write lock again; queries take the read lock.
	mu    sync.RWMutex
	flows map[*ir.Func]*dataflow.FuncFlow
	cfgs  map[*ir.Func]*cfg.Info

	succs map[*ir.Stmt][]Edge
	preds map[*ir.Stmt][]Edge

	// building tracks which functions' subgraphs are materialized or in
	// flight; waiters block on the slot's done channel.
	building map[*ir.Func]*buildState

	globalStores map[string][]*ir.Stmt // global name -> store stmts
	globalLoads  map[string][]*ir.Stmt
}

// New creates a PDG manager for prog; per-function subgraphs are built on
// demand via Ensure.
func New(prog *ir.Program) *Graph {
	return &Graph{
		Prog: prog,
		PTS:  dataflow.Analyze(prog),
		CG:   callgraph.Build(prog),
		state: &state{
			flows:        make(map[*ir.Func]*dataflow.FuncFlow),
			cfgs:         make(map[*ir.Func]*cfg.Info),
			succs:        make(map[*ir.Stmt][]Edge),
			preds:        make(map[*ir.Stmt][]Edge),
			building:     make(map[*ir.Func]*buildState),
			globalStores: make(map[string][]*ir.Stmt),
			globalLoads:  make(map[string][]*ir.Stmt),
		},
	}
}

// Counting returns a handle on the same graph that also charges every
// Ensure call and build made through it — directly or by any accessor — to
// t, so concurrent callers each know exactly the work they caused. The
// graph's own Stats still count everything. t is updated without
// synchronization: use the handle from one goroutine at a time.
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

// Stats returns the construction counters accumulated so far.
func (g *Graph) Stats() Stats {
	return Stats{
		EnsureCalls:  g.ensureCalls.Load(),
		EnsureBuilds: g.ensureBuilds.Load(),
		BuildNanos:   g.buildNanos.Load(),
	}
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
	g.ensureCalls.Add(1)
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

	g.ensureBuilds.Add(1)
	func() {
		t0 := time.Now()
		defer func() {
			ns := time.Since(t0).Nanoseconds()
			g.buildNanos.Add(ns)
			if g.tally != nil {
				g.tally.EnsureBuilds++
				g.tally.BuildNanos += ns
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
		cost += int64(len(fn.Stmts()))
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
	ff := dataflow.FlowAnalyze(fn, g.PTS)
	ci := cfg.Analyze(fn)

	// Intra-procedural Ed.
	var edges []Edge
	for _, d := range ff.Deps {
		edges = append(edges, Edge{From: d.Def, To: d.Use, Loc: d.Loc, Kind: EdgeIntra})
	}

	// Inter-procedural Ed: actual -> formal and return -> receiver, for
	// defined callees. These touch only immutable IR and the eager call
	// graph, so the callee need not be built.
	for _, s := range fn.Stmts() {
		if s.Kind != ir.StCall {
			continue
		}
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
	}

	// Global store/load accesses of fn (cross-function linking needs the
	// registry, so the edges themselves are derived under the lock).
	type globalAccess struct {
		name  string
		stmt  *ir.Stmt
		loc   ir.Loc
		store bool
	}
	var accesses []globalAccess
	for _, s := range fn.Stmts() {
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

	g.mu.Lock()
	defer g.mu.Unlock()
	g.flows[fn] = ff
	g.cfgs[fn] = ci
	for _, a := range accesses {
		if a.store {
			if registerAccess(g.globalStores, a.name, a.stmt) {
				for _, load := range g.globalLoads[a.name] {
					if load.Fn != a.stmt.Fn {
						edges = append(edges, Edge{From: a.stmt, To: load, Loc: ir.Loc{Base: g.Prog.GlobalVars[a.name]}, Kind: EdgeGlobal})
					}
				}
			}
		} else {
			if registerAccess(g.globalLoads, a.name, a.stmt) {
				for _, store := range g.globalStores[a.name] {
					if store.Fn != a.stmt.Fn {
						edges = append(edges, Edge{From: store, To: a.stmt, Loc: a.loc, Kind: EdgeGlobal})
					}
				}
			}
		}
	}
	g.installEdges(edges)
}

// registerAccess appends s to reg[name] unless present; reports whether it
// was new.
func registerAccess(reg map[string][]*ir.Stmt, name string, s *ir.Stmt) bool {
	for _, prev := range reg[name] {
		if prev == s {
			return false
		}
	}
	reg[name] = append(reg[name], s)
	return true
}

// installEdges merges new edges into the per-statement adjacency lists.
// Lists are rebuilt copy-on-write (readers may hold the old slices outside
// the lock) and kept in a canonical order, so the graph's shape does not
// depend on the order in which functions were built. Callers hold g.mu.
func (g *Graph) installEdges(edges []Edge) {
	bySucc := make(map[*ir.Stmt][]Edge)
	byPred := make(map[*ir.Stmt][]Edge)
	for _, e := range edges {
		bySucc[e.From] = append(bySucc[e.From], e)
		byPred[e.To] = append(byPred[e.To], e)
	}
	for s, add := range bySucc {
		g.succs[s] = mergeCanonical(g.succs[s], add)
	}
	for s, add := range byPred {
		g.preds[s] = mergeCanonical(g.preds[s], add)
	}
}

func mergeCanonical(old, add []Edge) []Edge {
	out := make([]Edge, 0, len(old)+len(add))
	out = append(out, old...)
	out = append(out, add...)
	sort.SliceStable(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

// edgeLess is a total order on edges built from deterministic statement and
// variable IDs (assigned in lowering order, independent of build schedule).
func edgeLess(a, b Edge) bool {
	if a.From.ID != b.From.ID {
		return a.From.ID < b.From.ID
	}
	if a.To.ID != b.To.ID {
		return a.To.ID < b.To.ID
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.ArgIndex != b.ArgIndex {
		return a.ArgIndex < b.ArgIndex
	}
	ab, bb := -1, -1
	if a.Loc.Base != nil {
		ab = a.Loc.Base.ID
	}
	if b.Loc.Base != nil {
		bb = b.Loc.Base.ID
	}
	if ab != bb {
		return ab < bb
	}
	if len(a.Loc.Path) != len(b.Loc.Path) {
		return len(a.Loc.Path) < len(b.Loc.Path)
	}
	for i := range a.Loc.Path {
		if a.Loc.Path[i].Kind != b.Loc.Path[i].Kind {
			return a.Loc.Path[i].Kind < b.Loc.Path[i].Kind
		}
		if a.Loc.Path[i].Off != b.Loc.Path[i].Off {
			return a.Loc.Path[i].Off < b.Loc.Path[i].Off
		}
	}
	return false
}

// DataSuccs returns the outgoing Ed edges of a statement. The returned
// slice is immutable (a rebuild replaces it wholesale).
func (g *Graph) DataSuccs(s *ir.Stmt) []Edge {
	g.Ensure(s.Fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.succs[s]
}

// DataPreds returns the incoming Ed edges of a statement.
func (g *Graph) DataPreds(s *ir.Stmt) []Edge {
	g.Ensure(s.Fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.preds[s]
}

// Flow returns the def-use solution of fn.
func (g *Graph) Flow(fn *ir.Func) *dataflow.FuncFlow {
	g.Ensure(fn)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.flows[fn]
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

// EdgeConditionExprs returns, for diagnostics, the guarding (expr, negated)
// pairs of a statement.
func (g *Graph) EdgeConditionExprs(s *ir.Stmt) []GuardExpr {
	deps := g.CtrlDeps(s)
	var out []GuardExpr
	for _, d := range deps {
		blk := d.Branch.Blk
		if d.EdgeIdx >= len(blk.EdgeConds) || blk.EdgeConds[d.EdgeIdx] == nil {
			continue
		}
		out = append(out, GuardExpr{Cond: blk.EdgeConds[d.EdgeIdx], Negated: blk.Negated[d.EdgeIdx]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return cir.ExprString(out[i].Cond) < cir.ExprString(out[j].Cond)
	})
	return out
}

// GuardExpr is a branch condition guarding a statement.
type GuardExpr struct {
	Cond    cir.Expr
	Negated bool
}
