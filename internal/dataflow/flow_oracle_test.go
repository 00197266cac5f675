package dataflow

import (
	"fmt"
	"sync"
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
)

// refMayAlias is the one-off alias query FlowAnalyze was first written
// against: resolve both access paths from scratch and scan the cell sets.
// It keeps its own copy of the overlap rule so that a change to overlaps
// shows up as a difference.
func refMayAlias(pt *PointsTo, fn *ir.Func, l1, l2 ir.Loc) bool {
	c1 := pt.cellsOfLoc(fn, l1)
	c2 := pt.cellsOfLoc(fn, l2)
	for a := range c1 {
		for b := range c2 {
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

// refFlowAnalyze is the reference value-flow solution: the same reaching
// definitions as FlowAnalyze, but every (use, reaching def) pair asks
// refMayAlias and every edge is deduplicated on the formatted Loc.Key.
func refFlowAnalyze(fn *ir.Func, pts *PointsTo) *FuncFlow {
	ff := &FuncFlow{Fn: fn}

	var defs []flowDef
	defIdx := make(map[*ir.Stmt][]int)
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			for _, dl := range EffectiveDefsFlagged(fn, s) {
				defIdx[s] = append(defIdx[s], len(defs))
				defs = append(defs, flowDef{stmt: s, loc: dl.Loc, strong: isStrong(dl.Loc), effect: dl.Effect})
			}
		}
	}
	n := len(defs)

	alias := func(a, b ir.Loc) bool {
		if a.Base == b.Base && a.SameShape(b) {
			return true
		}
		if isStrong(a) && isStrong(b) && a.Base != b.Base {
			return false
		}
		if pts == nil {
			return a.Base == b.Base
		}
		return refMayAlias(pts, fn, a, b)
	}

	type bits []bool
	newBits := func() bits { return make(bits, n) }
	union := func(dst, src bits) bool {
		changed := false
		for i, v := range src {
			if v && !dst[i] {
				dst[i] = true
				changed = true
			}
		}
		return changed
	}
	apply := func(set bits, s *ir.Stmt) {
		for _, di := range defIdx[s] {
			d := defs[di]
			if !d.strong {
				continue
			}
			for j := range defs {
				if defs[j].stmt != s && defs[j].loc.Equal(d.loc) {
					set[j] = false
				}
			}
		}
		for _, di := range defIdx[s] {
			set[di] = true
		}
	}

	in := make(map[*ir.Block]bits)
	out := make(map[*ir.Block]bits)
	for _, b := range fn.Blocks {
		in[b] = newBits()
		out[b] = newBits()
	}
	work := append([]*ir.Block{}, fn.Blocks...)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		ib := newBits()
		for _, p := range b.Preds {
			union(ib, out[p])
		}
		in[b] = ib
		ob := append(bits{}, ib...)
		for _, s := range b.Stmts {
			apply(ob, s)
		}
		if union(out[b], ob) {
			work = append(work, b.Succs...)
		}
	}

	seenDep := make(map[[3]interface{}]bool)
	for _, b := range fn.Blocks {
		cur := append(bits{}, in[b]...)
		for _, s := range b.Stmts {
			for _, u := range EffectiveUses(fn, s) {
				var regular, effects []int
				for j := range defs {
					if !cur[j] || defs[j].stmt == s {
						continue
					}
					if alias(defs[j].loc, u) {
						if defs[j].effect {
							effects = append(effects, j)
						} else {
							regular = append(regular, j)
						}
					}
				}
				chosen := regular
				if len(chosen) == 0 {
					chosen = effects
				}
				for _, j := range chosen {
					key := [3]interface{}{defs[j].stmt, s, u.Key()}
					if !seenDep[key] {
						seenDep[key] = true
						dep := DataDep{Def: defs[j].stmt, Use: s, Loc: u}
						ff.Deps = append(ff.Deps, dep)
					}
				}
				if len(chosen) == 0 {
					ff.Unrooted = append(ff.Unrooted, DataDep{Use: s, Loc: u})
				}
			}
			apply(cur, s)
		}
	}
	return ff
}

// diffDeps describes the first difference between two dep lists, or "".
func diffDeps(what string, got, want []DataDep) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d deps, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Def != w.Def || g.Use != w.Use || !g.Loc.Equal(w.Loc) {
			return fmt.Sprintf("%s[%d]: %v -> %v (%v), want %v -> %v (%v)",
				what, i, g.Def, g.Use, g.Loc, w.Def, w.Use, w.Loc)
		}
	}
	return ""
}

// diffFlow describes the first difference between two solutions, or "".
func diffFlow(got, want *FuncFlow) string {
	if d := diffDeps("Deps", got.Deps, want.Deps); d != "" {
		return d
	}
	if d := diffDeps("Unrooted", got.Unrooted, want.Unrooted); d != "" {
		return d
	}
	return ""
}

// oracleProgs returns the programs the value-flow oracle runs over:
// randprog programs with loops, calls and pointers, and the default
// kernelgen corpus linked into one program.
func oracleProgs(t testing.TB) map[string]*ir.Program {
	t.Helper()
	progs := make(map[string]*ir.Program)
	for seed := int64(0); seed < 40; seed++ {
		f, err := cir.ParseFile("rand.c", randprog.Program(seed, 3, randprog.Default()))
		if err != nil {
			t.Fatalf("randprog seed %d: %v", seed, err)
		}
		p, err := ir.NewProgram(f)
		if err != nil {
			t.Fatalf("randprog seed %d: %v", seed, err)
		}
		progs[fmt.Sprintf("randprog-%d", seed)] = p
	}
	progs["kernelgen-default"] = corpusProg(t, kernelgen.DefaultConfig())
	// Writes through an array index on one base read back through a field
	// of another: the edge exists only by the AnyOff arm of the overlap
	// rule, which neither generator above happens to need.
	f, err := cir.ParseFile("anyoff.c", anyOffSource)
	if err != nil {
		t.Fatal(err)
	}
	if progs["anyoff"], err = ir.NewProgram(f); err != nil {
		t.Fatal(err)
	}
	return progs
}

const anyOffSource = `
struct pair { int a; int b; };
void fill(int *x);
int f(struct pair *p, int i) {
	int *r = &p->a;
	r[i] = 5;
	return p->b;
}
int g(struct pair *p, int i) {
	struct pair *q = p;
	fill(&q->a);
	q->b = i;
	return p->a + p->b;
}
`

// corpusProg parses and links every file of a generated corpus.
func corpusProg(t testing.TB, cfg kernelgen.Config) *ir.Program {
	t.Helper()
	corpus := kernelgen.Generate(cfg)
	var files []*cir.File
	for _, name := range corpus.SortedFileNames() {
		f, err := cir.ParseFile(name, corpus.Files[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := ir.NewProgram(files...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlowAnalyzeMatchesReference: resolving aliasing once per function
// gives exactly the reference's def-use solution, edge order included.
func TestFlowAnalyzeMatchesReference(t *testing.T) {
	deps := 0
	for name, p := range oracleProgs(t) {
		pts := Analyze(p)
		for _, fn := range p.FuncList {
			got := FlowAnalyze(fn, pts)
			if d := diffFlow(got, refFlowAnalyze(fn, pts)); d != "" {
				t.Fatalf("%s %s: %s", name, fn.Name, d)
			}
			deps += len(got.Deps)
		}
	}
	if deps == 0 {
		t.Fatal("no def-use edges: the oracle compared nothing")
	}
}

// TestFlowAnalyzeAliasMemoMatchesMayAlias: for every def and use location
// of every function, overlap on the memoized cells equals both the
// one-off MayAlias and the reference query.
func TestFlowAnalyzeAliasMemoMatchesMayAlias(t *testing.T) {
	pairs, aliased := 0, 0
	for name, p := range oracleProgs(t) {
		pts := Analyze(p)
		for _, fn := range p.FuncList {
			var defs []ir.Loc
			var uses []ir.Loc
			for _, s := range fn.Stmts() {
				defs = append(defs, EffectiveDefs(fn, s)...)
				uses = append(uses, EffectiveUses(fn, s)...)
			}
			fa := newFlowAliases(fn, pts, len(defs))
			for j, d := range defs {
				for _, u := range uses {
					got := overlaps(fa.defCells(j, d), fa.cells(u))
					if want := refMayAlias(pts, fn, d, u); got != want {
						t.Fatalf("%s %s: memo overlap(%v, %v) = %v, reference %v", name, fn.Name, d, u, got, want)
					}
					if one := pts.MayAlias(fn, d, fn, u); got != one {
						t.Fatalf("%s %s: memo overlap(%v, %v) = %v, MayAlias %v", name, fn.Name, d, u, got, one)
					}
					pairs++
					if got {
						aliased++
					}
				}
			}
		}
	}
	if aliased == 0 || aliased == pairs {
		t.Fatalf("%d of %d pairs alias: the oracle does not discriminate", aliased, pairs)
	}
}

// TestFlowAnalyzeSameKeyMatchesKey: the formatting-free dedupe key class
// agrees with Loc.Key equality on every pair of use locations.
func TestFlowAnalyzeSameKeyMatchesKey(t *testing.T) {
	for name, p := range oracleProgs(t) {
		for _, fn := range p.FuncList {
			var uses []ir.Loc
			for _, s := range fn.Stmts() {
				uses = append(uses, EffectiveUses(fn, s)...)
			}
			for _, a := range uses {
				for _, b := range uses {
					if got, want := sameKey(a, b), a.Key() == b.Key(); got != want {
						t.Fatalf("%s %s: sameKey(%v, %v) = %v, Key equality %v", name, fn.Name, a, b, got, want)
					}
				}
			}
		}
	}
}

// TestFlowAnalyzeConcurrentFrozen: FlowAnalyze on one frozen PointsTo from
// 8 goroutines gives every goroutine the sequential result (run under
// -race to check that the per-call memo shares nothing).
func TestFlowAnalyzeConcurrentFrozen(t *testing.T) {
	p := corpusProg(t, kernelgen.DefaultConfig())
	pts := Analyze(p)
	want := make([]*FuncFlow, len(p.FuncList))
	for i, fn := range p.FuncList {
		want[i] = FlowAnalyze(fn, pts)
	}
	const goroutines = 8
	errs := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range p.FuncList {
				// Each goroutine starts at a different function so the
				// same functions are analysed at the same time.
				i := (k + g) % len(p.FuncList)
				fn := p.FuncList[i]
				if d := diffFlow(FlowAnalyze(fn, pts), want[i]); d != "" {
					errs[g] = fn.Name + ": " + d
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}
