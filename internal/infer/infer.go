package infer

import (
	"fmt"
	"sort"

	"seal/internal/budget"
	"seal/internal/ir"
	"seal/internal/obs"
	"seal/internal/patch"
	"seal/internal/pdg"
	"seal/internal/solver"
	"seal/internal/spec"
	"seal/internal/vfp"
)

// Stats summarizes one patch's inference, feeding the RQ2 statistics
// (relations per origin, paper §8.2).
type Stats struct {
	Criteria  int
	PrePaths  int
	PostPaths int
	PMinus    int
	PPlus     int
	PPsi      int
	POmega    int
	Relations int
	// Truncations / BudgetTruncations count the slicing enumerations cut
	// short during this patch's path collection (by any cap, and by the
	// dynamic unit budget respectively) — the counted warning that replaces
	// the formerly silent MaxPaths/MaxDepth cutoff.
	Truncations       int64
	BudgetTruncations int64
}

// Result is the inference output for one patch.
type Result struct {
	PatchID string
	Specs   []*spec.Spec
	Stats   Stats
}

// InferPatch runs the full stage ①–③ pipeline on one analyzed patch:
// demand-driven PDG construction, criteria selection, path collection,
// classification (Alg. 1), and deduction (Alg. 2).
func InferPatch(a *patch.Analyzed) *Result {
	return InferPatchObs(a, nil, nil, nil)
}

// InferPatchObs is InferPatch run as one unit of work. Path collection on
// both patch sides charges slicing steps and path memory to b, so a
// pathological patch exhausts its own budget (and is marked Degraded by
// the caller) instead of monopolizing the run; a nil budget is unmetered.
// Every solver check is charged to sat (nil counts nothing). When span is
// a live unit span, the pdg (graph construction and criteria selection),
// diff (path collection on both patch sides), and infer (classification and
// deduction) stages are recorded as child stage spans with monotonic-clock
// durations and budget-spend deltas. A nil span compiles to near-no-ops —
// no clock reads on the unobserved path.
func InferPatchObs(a *patch.Analyzed, b *budget.Budget, span *obs.Span, sat *solver.Tally) *Result {
	steps0 := b.StepsSpent()
	st := span.StartStage("pdg")
	gPre := pdg.New(a.PreProg)
	gPost := pdg.New(a.PostProg)

	critPre := Criteria(gPre, a, patch.PreSide)
	critPost := Criteria(gPost, a, patch.PostSide)
	// Mirror criteria across versions so guard-insertion patches (which
	// change no pre-patch line) still slice the affected statements on
	// both sides.
	critPre = MergeCriteria(critPre, CounterpartStmts(critPost, a.PreProg))
	critPost = MergeCriteria(critPost, CounterpartStmts(critPre, a.PostProg))
	st.EndWithSpend(b.StepsSpent()-steps0, 0)

	steps0 = b.StepsSpent()
	st = span.StartStage("diff")
	var trunc TruncCount
	prePaths := CollectPathsBudget(gPre, critPre, b, &trunc)
	postPaths := CollectPathsBudget(gPost, critPost, b, &trunc)
	st.EndWithSpend(b.StepsSpent()-steps0, 0)

	steps0 = b.StepsSpent()
	st = span.StartStage("infer")
	cls := Classify(gPre, gPost, prePaths, postPaths, sat)
	res := &Result{
		PatchID: a.Patch.ID,
		Stats: Stats{
			Criteria:          len(critPre) + len(critPost),
			PrePaths:          len(prePaths),
			PostPaths:         len(postPaths),
			Truncations:       trunc.Total,
			BudgetTruncations: trunc.Budget,
		},
	}
	res.Specs = Deduce(a.Patch.ID, gPre, gPost, cls, &res.Stats, sat)
	res.Stats.Relations = len(res.Specs)
	st.EndWithSpend(b.StepsSpent()-steps0, 0)
	if trunc.Total > 0 {
		span.Annotate("truncated", fmt.Sprintf("%d path enumerations cut short", trunc.Total))
	}
	return res
}

// Deduce implements Alg. 2: turn classified path changes into quantified
// relations, abstracted into the specification domain. Solver checks are
// charged to sat.
func Deduce(patchID string, gPre, gPost *pdg.Graph, cls *Classified, st *Stats, sat *solver.Tally) []*spec.Spec {
	db := &spec.DB{}
	n := 0
	nextID := func() string {
		n++
		return fmt.Sprintf("%s/S%d", patchID, n)
	}

	// Lines 3-4: removed paths are not expected (∄ after negation).
	for _, p := range cls.PMinus {
		if s, ok := reachSpec(gPre, p, true, spec.OriginRemoved, sat); ok {
			s.ID = nextID()
			s.OriginPatch = patchID
			db.Specs = append(db.Specs, s)
			st.PMinus++
		}
	}
	// Lines 5-6: added paths are required (∀/∃).
	for _, p := range cls.PPlus {
		if s, ok := reachSpec(gPost, p, false, spec.OriginAdded, sat); ok {
			s.ID = nextID()
			s.OriginPatch = patchID
			db.Specs = append(db.Specs, s)
			st.PPlus++
		}
	}
	// Lines 7-9: condition changes become delta-constraint relations.
	for _, pair := range cls.PPsi {
		abPre := NewAbstracter(gPre)
		abPost := NewAbstracter(gPost)
		psiPre := abPre.AbstractPsi(pair.Pre)
		psiPost := abPost.AbstractPsi(pair.Post)
		delta := solver.Simplify(solver.Delta(psiPre, psiPost))
		if sat.Unsat(delta) || sat.Equiv(delta, solver.TrueF{}) {
			continue
		}
		if s, ok := reachSpecWithCond(gPre, pair.Pre, delta, abPre, true, spec.OriginCondition, sat); ok {
			s.ID = nextID()
			s.OriginPatch = patchID
			db.Specs = append(db.Specs, s)
			st.PPsi++
		}
	}
	// Lines 10-19: order inconsistencies among comparable use sites.
	for _, s := range orderSpecs(patchID, gPre, gPost, cls.POmega, nextID) {
		db.Specs = append(db.Specs, s)
		st.POmega++
	}

	db.Dedup()
	return db.Specs
}

// reachSpec abstracts one path into a reachability relation.
func reachSpec(g *pdg.Graph, p *vfp.Path, forbidden bool, origin spec.Origin, sat *solver.Tally) (*spec.Spec, bool) {
	ab := NewAbstracter(g)
	cond := ab.AbstractPsi(p)
	return reachSpecWithCond(g, p, cond, ab, forbidden, origin, sat)
}

func reachSpecWithCond(g *pdg.Graph, p *vfp.Path, cond solver.Formula, ab *Abstracter, forbidden bool, origin spec.Origin, sat *solver.Tally) (*spec.Spec, bool) {
	v, ok := ab.ValueOf(p)
	if !ok {
		return nil, false
	}
	u, ok := ab.UseOf(p)
	if !ok {
		return nil, false
	}
	// Uninteresting self-flows: a value reaching its own definition class.
	if v.Kind == spec.VAPIRet && u.Kind == spec.UAPIArg && v.API == u.API {
		return nil, false
	}
	// An unconditioned argument-to-return flow carries no error-handling
	// evidence: requiring it of every implementation would flag any
	// constant-returning sibling (a classic incorrect-spec shape).
	if !forbidden && v.Kind == spec.VIfaceArg && u.Kind == spec.UIfaceRet && sat.Equiv(cond, solver.TrueF{}) {
		return nil, false
	}
	// Literal sources only matter for outgoing interaction data (error
	// codes); literal-to-sensitive-op relations are noise.
	if v.Kind == spec.VLiteral && u.Kind != spec.UIfaceRet && u.Kind != spec.UGlobalStore && u.Kind != spec.UAPIArg {
		return nil, false
	}
	iface, api := scopeOf(g, p, v, u, ab)
	if iface == "" && api == "" {
		return nil, false
	}
	return &spec.Spec{
		Iface:  iface,
		API:    api,
		Origin: origin,
		Constraint: spec.Constraint{
			Forbidden: forbidden,
			Rel:       spec.Relation{Kind: spec.RelReach, V: v, U: u, Cond: cond},
		},
	}, true
}

// scopeOf picks the detection region key: the interface when function-
// pointer elements are involved, otherwise the API (paper §5 Remark).
func scopeOf(g *pdg.Graph, p *vfp.Path, v spec.Value, u spec.Use, ab *Abstracter) (iface, api string) {
	switch {
	case v.Kind == spec.VIfaceArg:
		iface = v.Iface
	case u.Kind == spec.UIfaceRet || u.Kind == spec.UParamStore:
		iface = u.Iface
	}
	if iface == "" && p.Sink.Fn != nil {
		// The path lives inside an interface implementation: scope to it.
		iface = IfaceOf(g.Prog, p.Sink.Fn)
	}
	apis := ab.MentionedAPIs()
	if v.Kind == spec.VAPIRet {
		api = v.API
	} else if u.Kind == spec.UAPIArg {
		api = u.API
	} else if len(apis) > 0 {
		api = apis[0]
	}
	return iface, api
}

// orderSpecs implements Alg. 2 lines 10-19: group the unchanged paths by
// source, and for every pair of order-comparable sinks whose relative flow
// order flipped between versions, forbid the pre-patch arrangement.
func orderSpecs(patchID string, gPre, gPost *pdg.Graph, pairs []PathPair, nextID func() string) []*spec.Spec {
	type sinkRec struct {
		pair PathPair
		use  spec.Use
		v    spec.Value
	}
	groups := make(map[string][]sinkRec)
	var order []string
	for _, pr := range pairs {
		ab := NewAbstracter(gPre)
		v, ok := ab.ValueOf(pr.Pre)
		if !ok {
			continue
		}
		// Order relations only apply to memory-carrying interaction data:
		// by-value data cannot be affected by an API's side effects
		// (paper §5 step 2).
		if !memoryCarrying(pr.Pre) {
			continue
		}
		u, ok := ab.UseOf(pr.Pre)
		if !ok {
			continue
		}
		key := pr.Pre.Source.Key()
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], sinkRec{pair: pr, use: u, v: v})
	}
	sort.Strings(order)

	var out []*spec.Spec
	for _, key := range order {
		recs := groups[key]
		for i := 0; i < len(recs); i++ {
			for j := i + 1; j < len(recs); j++ {
				a, b := recs[i], recs[j]
				if a.use.Key() == b.use.Key() {
					continue
				}
				sA0, sB0 := a.pair.Pre.Sink.Stmt, b.pair.Pre.Sink.Stmt
				sA1, sB1 := a.pair.Post.Sink.Stmt, b.pair.Post.Sink.Stmt
				if sA0.Fn != sB0.Fn || sA1.Fn != sB1.Fn {
					continue
				}
				cfgPre := gPre.CFG(sA0.Fn)
				cfgPost := gPost.CFG(sA1.Fn)
				if !cfgPre.OrderComparable(sA0, sB0) || !cfgPost.OrderComparable(sA1, sB1) {
					continue
				}
				preAB := cfgPre.ExecutedBefore(sA0, sB0)
				postAB := cfgPost.ExecutedBefore(sA1, sB1)
				if preAB == postAB {
					continue
				}
				// The pre-patch order is forbidden: earlier = first in
				// pre-patch (U2), later = second (U1).
				first, second := a, b
				if !preAB {
					first, second = b, a
				}
				sp := &spec.Spec{
					ID:          nextID(),
					Origin:      spec.OriginOrder,
					OriginPatch: patchID,
					Constraint: spec.Constraint{
						Forbidden: true,
						Rel: spec.Relation{
							Kind: spec.RelOrder,
							V:    a.v,
							U1:   second.use, // must not occur after U2
							U2:   first.use,  // the use that must come last
							Cond: solver.TrueF{},
						},
					},
				}
				iface, api := "", ""
				if a.v.Kind == spec.VIfaceArg {
					iface = a.v.Iface
				}
				if first.use.Kind == spec.UAPIArg {
					api = first.use.API
				} else if second.use.Kind == spec.UAPIArg {
					api = second.use.API
				}
				if iface == "" && api == "" {
					continue
				}
				sp.Iface, sp.API = iface, api
				out = append(out, sp)
			}
		}
	}
	return out
}

// memoryCarrying reports whether the path's tracked source datum is a
// memory region (pointer parameter pointee, struct global, heap object) —
// the precondition for order sensitivity.
func memoryCarrying(p *vfp.Path) bool {
	switch p.Source.Kind {
	case vfp.SrcParam:
		v := p.Source.Loc.Base
		return v != nil && v.Type.IsPtr()
	case vfp.SrcGlobal:
		return true
	case vfp.SrcAPIRet:
		return true
	}
	return false
}

var _ = ir.StNop
