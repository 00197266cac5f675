// Package detect implements SEAL's stage ④ (paper §6.4): given inferred
// specifications, it delineates bug-detection regions (other
// implementations of the same function pointer, or other usages of the
// same API), instantiates the specification's value and use components,
// searches for realizable value-flow paths, and reports violations of
// reachability, condition, and order constraints.
package detect

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"seal/internal/budget"
	"seal/internal/infer"
	"seal/internal/ir"
	"seal/internal/pdg"
	"seal/internal/progindex"
	"seal/internal/solver"
	"seal/internal/spec"
	"seal/internal/vfp"
)

// Bug is one reported violation.
type Bug struct {
	Spec *spec.Spec
	// Fn is the function containing the violation.
	Fn *ir.Func
	// Kind is the detector's bug-type label (NPD, MemLeak, WrongEC, OOB,
	// UAF, DbZ, UninitVal, …).
	Kind string
	// Trace is the witness path for Forbidden specs (nil for Required
	// specs, whose violation is the absence of a path).
	Trace *vfp.Path
	// Trace2 is the second path of an order violation.
	Trace2 *vfp.Path
	// Message is a one-line summary.
	Message string

	// constraint and key are the spec's rendered constraint and the
	// report's Key, set once by rendered before the bug is published.
	constraint, key string
}

// rendered fills b's rendered constraint and key: the constraint text is
// the costly part of both, and merging, sharding and recording each need
// them. Every Bug is built through it.
func rendered(b *Bug) *Bug {
	b.constraint = b.Spec.Constraint.String()
	b.key = b.Fn.Name + "|" + b.Spec.KeyWith(b.constraint)
	return b
}

// Key is a dedup identity for the report list.
func (b *Bug) Key() string { return b.key }

// String implements fmt.Stringer.
func (b *Bug) String() string {
	return fmt.Sprintf("%s in %s (%s): %s", b.Kind, b.Fn.Name, b.Fn.File, b.Message)
}

// DefaultMaxCalleeDepth bounds the callee closure of a detection region.
// Exported because it is an analysis-semantics input to persistent cache
// fingerprints: changing it must change every detection cache key.
const DefaultMaxCalleeDepth = 3

// Detector checks specifications against a target program. A Detector is
// a lightweight worker view over a Shared substrate: any number of
// Detectors may run concurrently over one Shared, but a single Detector is
// not itself safe for concurrent use (it carries per-region scratch
// state — the slicer and abstracter scopes).
type Detector struct {
	G   *pdg.Graph
	sh  *Shared
	sl  *vfp.Slicer
	ab  *infer.Abstracter
	idx *progindex.Index

	// DisableMemo turns off the shared path cache (ablation benchmark).
	DisableMemo bool
	// GlobalRegions widens detection to every function rather than the
	// interface/API scope (ablation; the paper argues scoping is needed
	// for precision and scalability, §5 Remark).
	GlobalRegions bool
	// IgnoreConditions disables path-condition consistency checking
	// (ablation: quasi-path-sensitivity off — every syntactic path is
	// treated as realizable).
	IgnoreConditions bool

	// bud, when set, meters this detector's work (slicing, PDG builds,
	// solver calls) against one unit's budget. Nil means unmetered — the
	// default fast path pays nothing beyond nil checks.
	bud *budget.Budget
	// clk, when set, accumulates per-stage wall time (slice vs solve) for
	// this detector's unit span. Nil — the default — means no clock reads
	// on the hot path.
	clk *stageClock
	// sat, when set, is the tally of the unit this detector works for:
	// every solver check it makes is charged there, so concurrent runs in
	// one process — resident serving, in-process shard workers — never
	// absorb each other's checks into their per-run figures. Nil counts
	// nothing.
	sat *solver.Tally
	// pdgWork, lookups, pathHits, and pathMisses count the substrate work
	// this detector caused, charged where the work happens (the graph and
	// index handles, pathsFor) for the same reason.
	pdgWork              pdg.Stats
	lookups              int64
	pathHits, pathMisses int64
}

// Work returns the substrate work this detector caused, however other
// detectors on the same substrate were scheduled.
func (d *Detector) Work() Stats {
	return Stats{
		EnsureCalls:      d.pdgWork.EnsureCalls,
		EnsureBuilds:     d.pdgWork.EnsureBuilds,
		PDGBuildNanos:    d.pdgWork.BuildNanos,
		PathCacheHits:    d.pathHits,
		PathCacheMisses:  d.pathMisses,
		IndexLookups:     d.lookups,
		PathEnumerations: d.sl.Enumerations,
		Truncations:      d.sl.Truncations,
	}
}

// stageClock accumulates the wall time of a unit's detection stages. Plain
// fields: a Detector is single-goroutine.
type stageClock struct {
	sliceNs int64
	solveNs int64
}

// SetBudget binds the detector to a unit's budget: the slicer, PDG
// materialization, and solver calls all charge against it, and the limits'
// path/depth caps override the slicer defaults.
func (d *Detector) SetBudget(b *budget.Budget) {
	d.bud = b
	d.sl.Budget = b
	if b != nil {
		d.sl.ApplyLimits(b.Limits())
	}
}

// New creates a detector over the target program (with its own substrate;
// use Shared.Detector to share one across workers).
func New(prog *ir.Program) *Detector {
	return NewShared(prog).Detector()
}

// ValidateSpecs implements the quantifier validation of paper §6.3.3: a
// candidate specification must hold inside the patched (post-patch) code
// itself. A Forbidden relation still realizable there is evidently allowed
// (quantifier ∃, not ∄); a Required relation the patched code violates is
// not actually required. Such specs are dropped.
func ValidateSpecs(postProg *ir.Program, specs []*spec.Spec) []*spec.Spec {
	return ValidateSpecsBudget(postProg, specs, nil, nil)
}

// ValidateSpecsBudget is ValidateSpecs run inside the inferring patch's
// unit: metered against its budget, so validation of a candidate-heavy
// patch cannot outlive its unit either, with every solver check charged to
// its tally sat (nil counts nothing).
func ValidateSpecsBudget(postProg *ir.Program, specs []*spec.Spec, b *budget.Budget, sat *solver.Tally) []*spec.Spec {
	d := New(postProg)
	d.SetBudget(b)
	d.sat = sat
	var out []*spec.Spec
	for _, s := range specs {
		if len(d.DetectSpec(s)) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Detect checks every spec and returns the deduplicated bug reports.
func (d *Detector) Detect(specs []*spec.Spec) []*Bug {
	perSpec := make([][]*Bug, len(specs))
	for i, s := range specs {
		perSpec[i] = d.DetectSpec(s)
	}
	return mergeBugs(perSpec)
}

// mergeBugs flattens per-spec results in spec order, dedups by bug key
// (first spec wins, as in sequential detection), and sorts the report
// list. Detect and every region group of RunGroups finish through this,
// which is what makes their merged outputs byte-identical.
func mergeBugs(perSpec [][]*Bug) []*Bug {
	seen := make(map[string]bool)
	var out []*Bug
	for _, bugs := range perSpec {
		for _, b := range bugs {
			if k := b.Key(); !seen[k] {
				seen[k] = true
				out = append(out, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn.Name != out[j].Fn.Name {
			return out[i].Fn.Name < out[j].Fn.Name
		}
		return out[i].Spec.ID < out[j].Spec.ID
	})
	return out
}

// DetectSpec checks one spec against its detection regions.
func (d *Detector) DetectSpec(s *spec.Spec) []*Bug {
	var out []*Bug
	for _, fn := range d.Regions(s) {
		if b := d.checkRegion(s, fn); b != nil {
			out = append(out, b)
		}
	}
	return out
}

// Regions returns the bug-detection regions of a spec (paper §6.4.1):
// other implementations of the same function pointer, or — when no
// function-pointer elements are involved — other usages of the same API.
// The slice may be shared with the program (FuncList, ImplsOf): callers
// must not modify it.
func (d *Detector) Regions(s *spec.Spec) []*ir.Func {
	if d.GlobalRegions {
		return d.G.Prog.FuncList
	}
	if s.Iface != "" {
		dot := strings.IndexByte(s.Iface, '.')
		if dot < 0 {
			return nil
		}
		return d.G.Prog.ImplsOf(s.Iface[:dot], s.Iface[dot+1:])
	}
	if s.API != "" {
		callers := d.idx.CallersOf(s.API)
		out := make([]*ir.Func, len(callers))
		copy(out, callers)
		return out
	}
	return nil
}

// region returns the cached closure context of a region root.
func (d *Detector) region(fn *ir.Func) *regionCtx {
	return d.sh.region(fn, d.idx)
}

// checkRegion evaluates the spec inside one region function.
func (d *Detector) checkRegion(s *spec.Spec, fn *ir.Func) *Bug {
	rc := d.region(fn)
	// Materialize the PDG of the whole region first: inter-procedural
	// edges into a callee only exist once its caller is built. On a shared
	// graph each function is built at most once, whichever worker gets
	// here first. Under a budget each build is charged; an exhausted unit
	// stops materializing and finishes degraded.
	if d.bud == nil {
		for _, f := range rc.funcs {
			d.G.Ensure(f)
		}
	} else {
		for _, f := range rc.funcs {
			if d.G.EnsureBudget(f, d.bud.Step) != nil {
				break
			}
		}
	}
	// Confine slicing and condition abstraction to the region so results
	// depend only on the region, not on whatever else the shared graph
	// has materialized.
	d.sl.Scope = rc.set
	d.ab.Scope = rc.set
	rel := s.Constraint.Rel
	switch rel.Kind {
	case spec.RelReach:
		if s.Constraint.Forbidden {
			return d.checkForbiddenReach(s, rc)
		}
		return d.checkRequiredReach(s, rc)
	case spec.RelOrder:
		return d.checkOrder(s, rc)
	}
	return nil
}

// paths returns the memoized value-flow paths from a source statement
// within a region; the cache is shared across all workers of the
// substrate.
func (d *Detector) paths(src *ir.Stmt, rc *regionCtx) []*vfp.Path {
	if d.clk != nil {
		t0 := time.Now()
		defer func() { d.clk.sliceNs += time.Since(t0).Nanoseconds() }()
	}
	if d.DisableMemo {
		return d.sl.PathsFrom(src)
	}
	return d.sh.pathsFor(src, rc, d)
}

// sources instantiates the spec's V inside the region (the inverse of
// mapping 𝔸, §6.4.1), answering from the program index instead of
// rescanning every statement of the region per spec.
func (d *Detector) sources(v spec.Value, rc *regionCtx) []*ir.Stmt {
	var out []*ir.Stmt
	switch v.Kind {
	case spec.VIfaceArg:
		for _, ps := range d.idx.Func(rc.root).ParamDefs {
			if ps.ParamVar().ParamIndex == v.ArgIndex {
				out = append(out, ps)
			}
		}
	case spec.VAPIRet:
		for _, f := range rc.funcs {
			for _, st := range d.idx.Func(f).CallsByCallee[v.API] {
				if st.LHS != nil {
					out = append(out, st)
				}
			}
		}
	case spec.VLiteral:
		for _, f := range rc.funcs {
			out = append(out, d.idx.Func(f).IntLits[v.Lit]...)
		}
	case spec.VGlobal:
		for _, f := range rc.funcs {
			// Index prefilter: only run the flow scan over functions that
			// syntactically read the global at all.
			if !d.idx.Func(f).ReadsGlobals[v.Global] {
				continue
			}
			out = appendUnrooted(out, d.G.Unrooted(f), f, func(l ir.Loc) bool {
				return l.Base.Kind == ir.VarGlobal && l.Base.Name == v.Global
			})
		}
	case spec.VUninit:
		for _, f := range rc.funcs {
			out = appendUnrooted(out, d.G.Unrooted(f), f, func(l ir.Loc) bool {
				return l.Base.Kind == ir.VarLocal && !l.Base.Initialized
			})
		}
	}
	return dedupStmts(out)
}

// appendUnrooted appends, in block and statement order, every statement of
// fn with an unrooted read that match accepts (once per matching read).
func appendUnrooted(out []*ir.Stmt, ur pdg.Unrooted, fn *ir.Func, match func(ir.Loc) bool) []*ir.Stmt {
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			for _, l := range ur.At(s) {
				if match(l) {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// useMatches reports whether a found path's sink realizes the spec's U.
func useMatches(u spec.Use, snk vfp.Endpoint, prog *ir.Program) bool {
	switch u.Kind {
	case spec.UAPIArg:
		return snk.Kind == vfp.SnkAPIArg && snk.API == u.API && snk.ArgIndex == u.ArgIndex
	case spec.UIfaceRet:
		return snk.Kind == vfp.SnkIfaceRet
	case spec.UGlobalStore:
		return snk.Kind == vfp.SnkGlobalStore
	case spec.UDeref:
		return snk.Kind == vfp.SnkDeref
	case spec.UIndex:
		return snk.Kind == vfp.SnkIndex || snk.Kind == vfp.SnkDeref
	case spec.UDiv:
		return snk.Kind == vfp.SnkDiv
	case spec.UParamStore:
		return snk.Kind == vfp.SnkParamStore && snk.ParamIndex == u.ArgIndex
	}
	return false
}

// regionHasAPI reports whether the region invokes the API (instantiation
// precondition for specs whose condition depends on it).
func (d *Detector) regionHasAPI(rc *regionCtx, api string) bool {
	if api == "" {
		return true
	}
	for _, f := range rc.funcs {
		if len(d.idx.Func(f).CallsByCallee[api]) > 0 {
			return true
		}
	}
	return false
}

// checkRequiredReach: the relation must hold — absence of any realizable,
// condition-consistent path is a violation.
func (d *Detector) checkRequiredReach(s *spec.Spec, rc *regionCtx) *Bug {
	fn := rc.root
	rel := s.Constraint.Rel
	// Instantiation precondition: the APIs the condition talks about must
	// be present, otherwise the spec does not apply here.
	if !d.regionHasAPI(rc, s.API) {
		return nil
	}
	if !d.condAPIsPresent(rel.Cond, rc) {
		return nil
	}
	trunc0 := d.sl.BudgetTruncations
	srcs := d.sources(rel.V, rc)
	for _, src := range srcs {
		for _, p := range d.paths(src, rc) {
			if p.Sink.Fn != nil && p.Sink.Kind == vfp.SnkIfaceRet && p.Sink.Fn != fn {
				continue // a return of some other impl reached via shared helpers
			}
			if !useMatches(rel.U, p.Sink, d.G.Prog) {
				continue
			}
			if d.condConsistent(p, rel.Cond) {
				return nil // satisfied
			}
		}
	}
	msg := fmt.Sprintf("required value flow %s is missing (no realizable path under %s)",
		rel.V.Key()+" -> "+rel.U.Key(), solver.String(rel.Cond))
	// A required-reach violation is an ABSENCE claim; if enumeration was
	// budget-truncated while forming it, the satisfying path may simply be
	// beyond the budget. Say so instead of reporting silent certainty.
	if d.sl.BudgetTruncations > trunc0 {
		msg += " [degraded: path enumeration was budget-truncated; the satisfying flow may exist beyond the budget]"
	}
	if rel.U.Kind == spec.UAPIArg {
		if alt := d.similarAPICalled(rc, rel.U.API); alt != "" {
			msg += fmt.Sprintf("; note: region calls %s, possibly an equivalent post-operation", alt)
		}
	}
	return rendered(&Bug{
		Spec:    s,
		Fn:      fn,
		Kind:    ClassifyKind(s),
		Message: msg,
	})
}

// similarAPICalled looks for an API invoked in the region whose name
// shares a prefix with the expected one — the "equivalent post-operations"
// the paper identifies as an FP source (e.g. kfree vs kfree_sensitive).
// Surfacing the candidate in the report helps triage.
func (d *Detector) similarAPICalled(rc *regionCtx, want string) string {
	for _, f := range rc.funcs {
		for _, callee := range d.idx.Func(f).CalleeNames {
			if callee == want || !d.G.Prog.IsAPI(callee) {
				continue
			}
			if strings.HasPrefix(callee, want) || strings.HasPrefix(want, callee) {
				return callee
			}
		}
	}
	return ""
}

// checkForbiddenReach: any realizable path consistent with the (delta)
// condition is a violation.
func (d *Detector) checkForbiddenReach(s *spec.Spec, rc *regionCtx) *Bug {
	fn := rc.root
	rel := s.Constraint.Rel
	for _, src := range d.sources(rel.V, rc) {
		for _, p := range d.paths(src, rc) {
			if !useMatches(rel.U, p.Sink, d.G.Prog) {
				continue
			}
			if p.Sink.Fn != nil && p.Sink.Fn != fn && !rc.set[p.Sink.Fn] {
				continue
			}
			if d.condConsistent(p, rel.Cond) {
				return rendered(&Bug{
					Spec:  s,
					Fn:    fn,
					Kind:  ClassifyKind(s),
					Trace: p,
					Message: fmt.Sprintf("forbidden value flow %s -> %s realizable under %s",
						rel.V.Key(), rel.U.Key(), solver.String(rel.Cond)),
				})
			}
		}
	}
	return nil
}

// checkOrder: the forbidden arrangement is U2's site executing before U1's
// site for the same source datum.
func (d *Detector) checkOrder(s *spec.Spec, rc *regionCtx) *Bug {
	fn := rc.root
	rel := s.Constraint.Rel
	for _, src := range d.sources(rel.V, rc) {
		ps := d.paths(src, rc)
		var u1Paths, u2Paths []*vfp.Path
		for _, p := range ps {
			if useMatches(rel.U1, p.Sink, d.G.Prog) {
				u1Paths = append(u1Paths, p)
			}
			if useMatches(rel.U2, p.Sink, d.G.Prog) {
				u2Paths = append(u2Paths, p)
			}
		}
		for _, p1 := range u1Paths {
			for _, p2 := range u2Paths {
				s1, s2 := p1.Sink.Stmt, p2.Sink.Stmt
				if s1 == s2 || s1.Fn != s2.Fn {
					continue
				}
				info := d.G.CFG(s1.Fn)
				if !info.OrderComparable(s1, s2) {
					continue
				}
				if info.ExecutedBefore(s2, s1) {
					return rendered(&Bug{
						Spec:   s,
						Fn:     fn,
						Kind:   ClassifyKind(s),
						Trace:  p1,
						Trace2: p2,
						Message: fmt.Sprintf("use %s at line %d occurs after %s at line %d (forbidden order)",
							rel.U1.Key(), s1.Line, rel.U2.Key(), s2.Line),
					})
				}
			}
		}
	}
	return nil
}

// condConsistent evaluates the consistency between a found path's Ψ and
// the spec condition (paper §6.4.2): the abstracted Ψ must be jointly
// satisfiable with the condition.
func (d *Detector) condConsistent(p *vfp.Path, cond solver.Formula) bool {
	if cond == nil || d.IgnoreConditions {
		return true
	}
	if d.clk != nil {
		t0 := time.Now()
		defer func() { d.clk.solveNs += time.Since(t0).Nanoseconds() }()
	}
	psi := d.ab.AbstractPsi(p)
	if d.bud != nil {
		return d.sat.SatBudget(solver.MkAnd(psi, cond), d.bud.Step)
	}
	return d.sat.Sat(solver.MkAnd(psi, cond))
}

// condAPIsPresent checks that every API mentioned in the condition's
// symbols is invoked in the region.
func (d *Detector) condAPIsPresent(cond solver.Formula, rc *regionCtx) bool {
	for _, sym := range solver.Symbols(cond) {
		if strings.HasPrefix(sym, "ret[") {
			api := sym[len("ret[") : len(sym)-1]
			if idx := strings.IndexByte(api, ']'); idx >= 0 {
				api = api[:idx]
			}
			if !d.regionHasAPI(rc, api) {
				return false
			}
		}
	}
	return true
}

func dedupStmts(in []*ir.Stmt) []*ir.Stmt {
	seen := make(map[*ir.Stmt]bool, len(in))
	var out []*ir.Stmt
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ClassifyKind labels the bug type a spec's violation manifests as,
// mirroring Table 2's categories.
func ClassifyKind(s *spec.Spec) string {
	rel := s.Constraint.Rel
	if rel.Kind == spec.RelOrder {
		return "UAF"
	}
	switch {
	case rel.U.Kind == spec.UDiv:
		return "DbZ"
	case rel.U.Kind == spec.UIndex:
		return "OOB"
	case rel.V.Kind == spec.VUninit:
		return "UninitVal"
	case rel.U.Kind == spec.UDeref:
		return "NPD"
	case !s.Constraint.Forbidden && rel.V.Kind == spec.VLiteral && rel.V.Lit < 0 && rel.U.Kind == spec.UIfaceRet:
		return "WrongEC"
	case !s.Constraint.Forbidden && rel.U.Kind == spec.UIfaceRet:
		return "WrongEC"
	case !s.Constraint.Forbidden && rel.U.Kind == spec.UAPIArg:
		return "MemLeak"
	case !s.Constraint.Forbidden && rel.U.Kind == spec.UParamStore:
		return "UninitVal"
	case s.Constraint.Forbidden && rel.U.Kind == spec.UAPIArg:
		return "API-Misuse"
	}
	return "Other"
}
