package vfp

import (
	"sync"

	"seal/internal/budget"
	"seal/internal/ir"
	"seal/internal/pdg"
)

// Slicer collects value-flow paths by forward/backward traversal over the
// PDG's data-dependence edges (paper §6.2: "the collection process is
// conducted via forward and backward slicings from the slicing criterions").
type Slicer struct {
	G *pdg.Graph
	// MaxDepth bounds the statement count per direction.
	MaxDepth int
	// MaxPaths bounds the total paths returned per criterion.
	MaxPaths int
	// Scope, when non-nil, confines traversal to statements of the given
	// functions. Detection sets it to the region's callee closure so path
	// results depend only on the region — not on which other functions
	// happen to be materialized in a shared PDG.
	Scope map[*ir.Func]bool
	// Budget, when non-nil, meters traversal: every node expansion
	// charges one step and every retained path charges memory, so a
	// pathological criterion exhausts its unit's budget instead of the
	// process. Nil means unmetered.
	Budget *budget.Budget

	// Enumerations counts path enumerations started since the slicer was
	// created.
	Enumerations int64
	// Truncations counts enumerations cut short by any cap since the
	// slicer was created.
	Truncations int64
	// BudgetTruncations counts the subset cut short by the dynamic
	// budget (steps, memory, deadline) rather than the deterministic
	// path/depth caps. Dynamic truncation makes results unit-specific:
	// shared caches must not publish them.
	BudgetTruncations int64

	// trunc is the per-enumeration truncation state.
	trunc struct {
		fired     bool
		budgetHit bool
	}

	// marks are the current enumeration's walk marks, taken from
	// walkMarksPool by the first walk and returned by finishEnum.
	marks *walkMarks
	// trail is the depth-first walks' reused trail buffer, and sinks the
	// forward walk's reused sink list. Results copy out of both.
	trail []*ir.Stmt
	sinks []Endpoint
}

// walkMarks are the visited marks of slicer walks: visited[id] == walk
// marks statement id as on the current walk's trail, and bumping walk
// clears every mark at once. A mark array is as long as the program's
// statement list, so it is pooled rather than made per Slicer (detection
// makes one Slicer per region group): each goroutine's enumerations
// reuse one array, and sync.Pool drops idle arrays at GC, so a resident
// process does not keep them. Values in the array never exceed walk, so
// an array left by a longer program can serve a shorter one as is.
type walkMarks struct {
	visited []uint32
	walk    uint32
}

var walkMarksPool = sync.Pool{New: func() any { return new(walkMarks) }}

// NewSlicer returns a slicer with the default bounds.
func NewSlicer(g *pdg.Graph) *Slicer {
	return &Slicer{G: g, MaxDepth: 24, MaxPaths: 400}
}

// ApplyLimits overrides the deterministic caps from a Limits value (zero
// fields keep the current caps).
func (sl *Slicer) ApplyLimits(l budget.Limits) {
	if l.MaxPaths > 0 {
		sl.MaxPaths = l.MaxPaths
	}
	if l.MaxDepth > 0 {
		sl.MaxDepth = l.MaxDepth
	}
}

// beginEnum resets the per-enumeration truncation state and counts the
// enumeration.
func (sl *Slicer) beginEnum() {
	sl.Enumerations++
	sl.trunc.fired = false
	sl.trunc.budgetHit = false
}

// noteTrunc records one truncation cause; finishEnum counts the
// enumeration once however many causes fired.
func (sl *Slicer) noteTrunc(reason budget.Reason) {
	sl.trunc.fired = true
	switch reason {
	case budget.ReasonSteps, budget.ReasonMemory, budget.ReasonDeadline, budget.ReasonCanceled:
		sl.trunc.budgetHit = true
	}
}

// budgetStep charges one traversal step; a budget trip is recorded as a
// truncation and stops the walk.
func (sl *Slicer) budgetStep() bool {
	if sl.Budget == nil {
		return true
	}
	if err := sl.Budget.Step(1); err != nil {
		sl.noteTrunc(budget.ClassifyErr(err))
		return false
	}
	return true
}

// chargePath charges the memory cost of one retained path.
func (sl *Slicer) chargePath(nodes int) bool {
	if sl.Budget == nil {
		return true
	}
	// Approximate retained size: node slice + path header.
	if err := sl.Budget.Grow(int64(nodes)*16 + 96); err != nil {
		sl.noteTrunc(budget.ClassifyErr(err))
		return false
	}
	return true
}

// finishEnum settles an enumeration: counts the truncation and marks every
// produced path so downstream consumers can tell "no path" from
// "enumeration cut short" (Path.Truncated).
func (sl *Slicer) finishEnum(paths []*Path) []*Path {
	if sl.marks != nil {
		walkMarksPool.Put(sl.marks)
		sl.marks = nil
	}
	if !sl.trunc.fired {
		return paths
	}
	sl.Truncations++
	if sl.trunc.budgetHit {
		sl.BudgetTruncations++
	}
	for _, p := range paths {
		p.Truncated = true
	}
	return paths
}

// segment is a partial path: nodes in source-to-sink order.
type segment struct {
	nodes []*ir.Stmt
	ep    Endpoint
}

// Collect gathers all source-to-sink value-flow paths passing through the
// criterion statement (paper §6.2.1-6.2.2).
func (sl *Slicer) Collect(criterion *ir.Stmt) []*Path {
	sl.beginEnum()
	backs := sl.backward(criterion)
	fwds := sl.forward(criterion, false)
	var out []*Path
	for _, b := range backs {
		for _, f := range fwds {
			nodes := make([]*ir.Stmt, 0, len(b.nodes)+len(f.nodes))
			nodes = append(nodes, b.nodes...)
			nodes = append(nodes, f.nodes...) // forward nodes exclude criterion
			if !sl.chargePath(len(nodes)) {
				return sl.finishEnum(DedupePaths(out))
			}
			out = append(out, &Path{Nodes: nodes, Source: b.ep, Sink: f.ep})
			if len(out) >= sl.MaxPaths {
				sl.noteTrunc(budget.ReasonPaths)
				return sl.finishEnum(DedupePaths(out))
			}
		}
	}
	return sl.finishEnum(DedupePaths(out))
}

// PathsFrom gathers the value-flow paths starting at a source statement
// (used by bug detection: the instantiated V elements are the sources).
func (sl *Slicer) PathsFrom(source *ir.Stmt) []*Path {
	sl.beginEnum()
	ep, ok := classifySource(sl.G, source)
	if !ok {
		// Fall back to rootless classification on the statement's uses.
		if eps := sl.rootlessSources(source); len(eps) > 0 {
			ep, ok = eps[0], true
		}
	}
	if !ok {
		return nil
	}
	var out []*Path
	for _, f := range sl.forward(source, true) {
		if !sl.chargePath(len(f.nodes)) {
			break
		}
		out = append(out, &Path{Nodes: f.nodes, Source: ep, Sink: f.ep})
		if len(out) >= sl.MaxPaths {
			sl.noteTrunc(budget.ReasonPaths)
			break
		}
	}
	return sl.finishEnum(DedupePaths(out))
}

// crossesIndirect reports whether following the edge would cross an
// indirect-call boundary, which slicing never does (paper §7).
func crossesIndirect(e pdg.Edge) bool {
	switch e.Kind {
	case pdg.EdgeParam:
		return e.From.Kind == ir.StCall && e.From.Callee == ""
	case pdg.EdgeReturn:
		return e.To.Kind == ir.StCall && e.To.Callee == ""
	}
	return false
}

// rootlessSources classifies the criterion's reads that have no reaching
// definition (globals, uninitialized locals, raw parameter reads).
func (sl *Slicer) rootlessSources(s *ir.Stmt) []Endpoint {
	var out []Endpoint
	for _, l := range sl.G.Unrooted(s.Fn).At(s) {
		if ep, ok := classifyRootless(s, l); ok {
			out = append(out, ep)
		}
	}
	return out
}

// beginWalk clears the visited marks for a new backward or forward walk
// and returns the empty trail buffer, with room for MaxDepth statements.
func (sl *Slicer) beginWalk() []*ir.Stmt {
	m := sl.marks
	if m == nil {
		m = walkMarksPool.Get().(*walkMarks)
		sl.marks = m
	}
	if n := len(sl.G.Prog.AllStmts()); cap(m.visited) < n {
		m.visited = make([]uint32, n)
		m.walk = 0
	} else {
		m.visited = m.visited[:n]
	}
	m.walk++
	if m.walk == 0 { // wrapped: old marks could collide
		clear(m.visited[:cap(m.visited)])
		m.walk = 1
	}
	if cap(sl.trail) < sl.MaxDepth {
		sl.trail = make([]*ir.Stmt, 0, sl.MaxDepth)
	}
	return sl.trail[:0]
}

func (sl *Slicer) isVisited(s *ir.Stmt) bool { return sl.marks.visited[s.ID] == sl.marks.walk }

func (sl *Slicer) setVisited(s *ir.Stmt, on bool) {
	if on {
		sl.marks.visited[s.ID] = sl.marks.walk
	} else {
		sl.marks.visited[s.ID] = 0
	}
}

// backward returns segments [source .. criterion] (criterion included).
func (sl *Slicer) backward(criterion *ir.Stmt) []segment {
	var out []segment
	emit := func(nodesRev []*ir.Stmt, ep Endpoint) {
		// nodesRev is criterion-first; reverse it.
		n := len(nodesRev)
		nodes := make([]*ir.Stmt, n)
		for i, s := range nodesRev {
			nodes[n-1-i] = s
		}
		out = append(out, segment{nodes: nodes, ep: ep})
	}
	trail0 := sl.beginWalk()
	var dfs func(cur *ir.Stmt, cameByParam bool, trail []*ir.Stmt)
	dfs = func(cur *ir.Stmt, cameByParam bool, trail []*ir.Stmt) {
		if len(out) >= sl.MaxPaths {
			sl.noteTrunc(budget.ReasonPaths)
			return
		}
		if len(trail) >= sl.MaxDepth {
			sl.noteTrunc(budget.ReasonDepth)
			return
		}
		if !sl.budgetStep() {
			return
		}
		trail = append(trail, cur)

		if ep, ok := classifySource(sl.G, cur); ok {
			if ep.Kind == SrcParam && !sl.interfaceImpl(cur.Fn) {
				// Parameter of a plain helper: extend into direct callers
				// when possible, otherwise treat the parameter as source.
				extended := false
				preds := sl.G.PredEdges(cur)
				for i := 0; i < preds.Len(); i++ {
					e := preds.At(i)
					if e.Kind != pdg.EdgeParam || crossesIndirect(e) || sl.isVisited(e.From) || !sl.inScope(e.From.Fn) {
						continue
					}
					sl.setVisited(e.From, true)
					dfs(e.From, true, trail)
					sl.setVisited(e.From, false)
					extended = true
				}
				if !extended {
					emit(trail, ep)
				}
				return
			}
			emit(trail, ep)
			if ep.Kind != SrcAPIRet || cameByParam {
				return
			}
			// An API call is a source for its result, but its arguments
			// still carry value flows worth slicing backward through.
		}

		// Rootless reads at this node are sources rooted here.
		for _, ep := range sl.rootlessSources(cur) {
			emit(trail, ep)
		}

		preds := sl.G.PredEdges(cur)
		for i := 0; i < preds.Len(); i++ {
			e := preds.At(i)
			if crossesIndirect(e) {
				continue
			}
			if !sl.inScope(e.From.Fn) {
				continue
			}
			// Role separation at call nodes (mirror of the forward rule):
			// walking back from a callee parameter reaches the call via an
			// argument — continuing backward through the callee's returns
			// would teleport the value.
			if cameByParam && cur.Kind == ir.StCall && e.Kind == pdg.EdgeReturn {
				continue
			}
			if sl.isVisited(e.From) {
				continue
			}
			sl.setVisited(e.From, true)
			dfs(e.From, e.Kind == pdg.EdgeParam, trail)
			sl.setVisited(e.From, false)
		}
	}
	sl.setVisited(criterion, true)
	dfs(criterion, false, trail0)
	return out
}

// forward returns continuations after the criterion, each ending at a
// classified sink. Nodes exclude the criterion itself unless withHead is
// set, in which case every segment starts with it: one copy per sink
// makes the whole path.
func (sl *Slicer) forward(criterion *ir.Stmt, withHead bool) []segment {
	var out []segment
	trail0 := sl.beginWalk()
	var head []*ir.Stmt
	if withHead {
		head = []*ir.Stmt{criterion}
	}
	seg := func(trail []*ir.Stmt) []*ir.Stmt {
		if len(head)+len(trail) == 0 {
			return nil
		}
		nodes := make([]*ir.Stmt, 0, len(head)+len(trail))
		return append(append(nodes, head...), trail...)
	}

	// The criterion itself may be an ultimate use.
	for _, ep := range sl.criterionSinks(criterion) {
		out = append(out, segment{nodes: seg(nil), ep: ep})
	}

	var dfs func(cur *ir.Stmt, came pdg.Edge, trail []*ir.Stmt)
	dfs = func(cur *ir.Stmt, came pdg.Edge, trail []*ir.Stmt) {
		if len(out) >= sl.MaxPaths {
			sl.noteTrunc(budget.ReasonPaths)
			return
		}
		if len(trail) >= sl.MaxDepth {
			sl.noteTrunc(budget.ReasonDepth)
			return
		}
		if !sl.budgetStep() {
			return
		}
		trail = append(trail, cur)
		sl.sinks = appendSinks(sl.sinks[:0], sl.G, cur, came.Loc)
		for _, ep := range sl.sinks {
			out = append(out, segment{nodes: seg(trail), ep: ep})
		}
		succs := sl.G.SuccEdges(cur)
		for i := 0; i < succs.Len(); i++ {
			e := succs.At(i)
			if crossesIndirect(e) {
				continue
			}
			if !sl.inScope(e.To.Fn) {
				continue
			}
			// Role separation at call nodes: a value received FROM a
			// callee's return lives in the call's result — it cannot flow
			// back into the callee's parameters, nor through the call's
			// argument-derived side effects.
			if cur.Kind == ir.StCall && came.Kind == pdg.EdgeReturn {
				if e.Kind == pdg.EdgeParam {
					continue
				}
				if !flowsFromResult(cur, e) {
					continue
				}
			}
			if sl.isVisited(e.To) {
				continue
			}
			sl.setVisited(e.To, true)
			dfs(e.To, e, trail)
			sl.setVisited(e.To, false)
		}
	}
	sl.setVisited(criterion, true)
	succs := sl.G.SuccEdges(criterion)
	for i := 0; i < succs.Len(); i++ {
		e := succs.At(i)
		if crossesIndirect(e) {
			continue
		}
		if sl.isVisited(e.To) || !sl.inScope(e.To.Fn) {
			continue
		}
		sl.setVisited(e.To, true)
		dfs(e.To, e, trail0)
		sl.setVisited(e.To, false)
	}
	return out
}

// flowsFromResult reports whether an out-edge of a call statement carries
// the call's result (LHS) rather than an argument-derived side effect.
func flowsFromResult(call *ir.Stmt, e pdg.Edge) bool {
	if len(call.Defs) == 0 {
		return false
	}
	lhs := call.Defs[0]
	return e.Loc.Base == lhs.Base
}

// criterionSinks classifies the criterion statement's own ultimate uses.
func (sl *Slicer) criterionSinks(s *ir.Stmt) []Endpoint {
	seen := make(map[string]bool)
	var out []Endpoint
	add := func(eps []Endpoint) {
		for _, ep := range eps {
			k := ep.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, ep)
			}
		}
	}
	if len(s.Uses) == 0 {
		add(classifySinks(sl.G, s, ir.Loc{Base: &ir.Var{ID: -1, Name: "<none>"}}))
		return out
	}
	for _, u := range s.Uses {
		add(classifySinks(sl.G, s, u))
	}
	return out
}

// inScope reports whether traversal may enter fn (always true without a
// configured Scope).
func (sl *Slicer) inScope(fn *ir.Func) bool {
	return sl.Scope == nil || sl.Scope[fn]
}

func (sl *Slicer) interfaceImpl(fn *ir.Func) bool {
	return len(sl.G.Prog.InterfacesOf(fn)) > 0
}
