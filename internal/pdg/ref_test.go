package pdg

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"seal/internal/cir"
	"seal/internal/dataflow"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
)

// refGraph is the reference edge storage: per-statement lists in
// pointer-keyed maps, each merged copy-on-write by a stable sort of whole
// Edges, as the graph kept them before its lists became Stmt.ID-indexed
// and pointer-free. It derives edges with the graph's own funcEdges, so
// any difference comes from storage, ordering or global linking.
type refGraph struct {
	g            *Graph // supplies PTS, CG and funcEdges only
	built        map[*ir.Func]bool
	succs        map[*ir.Stmt][]Edge
	preds        map[*ir.Stmt][]Edge
	globalStores map[string][]*ir.Stmt
	globalLoads  map[string][]globalAccess
}

func newRefGraph(g *Graph) *refGraph {
	return &refGraph{
		g:            g,
		built:        make(map[*ir.Func]bool),
		succs:        make(map[*ir.Stmt][]Edge),
		preds:        make(map[*ir.Stmt][]Edge),
		globalStores: make(map[string][]*ir.Stmt),
		globalLoads:  make(map[string][]globalAccess),
	}
}

func (r *refGraph) ensure(fn *ir.Func) {
	if r.built[fn] {
		return
	}
	r.built[fn] = true
	edges, accesses := r.g.funcEdges(fn)
	for _, d := range dataflow.FlowAnalyze(fn, r.g.PTS).Deps {
		edges = append(edges, Edge{From: d.Def, To: d.Use, Loc: d.Loc, Kind: EdgeIntra})
	}
	for _, a := range accesses {
		if a.store {
			if refRegister(r.globalStores, a.name, a.stmt) {
				for _, load := range r.globalLoads[a.name] {
					if load.stmt.Fn != a.stmt.Fn {
						edges = append(edges, Edge{From: a.stmt, To: load.stmt, Loc: load.loc, Kind: EdgeGlobal})
					}
				}
			}
			continue
		}
		known := false
		for _, l := range r.globalLoads[a.name] {
			known = known || l.stmt == a.stmt
		}
		if !known {
			r.globalLoads[a.name] = append(r.globalLoads[a.name], a)
			for _, store := range r.globalStores[a.name] {
				if store.Fn != a.stmt.Fn {
					edges = append(edges, Edge{From: store, To: a.stmt, Loc: a.loc, Kind: EdgeGlobal})
				}
			}
		}
	}
	bySucc := make(map[*ir.Stmt][]Edge)
	byPred := make(map[*ir.Stmt][]Edge)
	for _, e := range edges {
		bySucc[e.From] = append(bySucc[e.From], e)
		byPred[e.To] = append(byPred[e.To], e)
	}
	for s, add := range bySucc {
		r.succs[s] = refMerge(r.succs[s], add)
	}
	for s, add := range byPred {
		r.preds[s] = refMerge(r.preds[s], add)
	}
}

func refRegister(reg map[string][]*ir.Stmt, name string, s *ir.Stmt) bool {
	for _, prev := range reg[name] {
		if prev == s {
			return false
		}
	}
	reg[name] = append(reg[name], s)
	return true
}

func refMerge(old, add []Edge) []Edge {
	out := make([]Edge, 0, len(old)+len(add))
	out = append(out, old...)
	out = append(out, add...)
	sort.SliceStable(out, func(i, j int) bool { return refEdgeLess(out[i], out[j]) })
	return out
}

func refEdgeLess(a, b Edge) bool {
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

// diffEdges describes the first difference between two edge lists, or "".
func diffEdges(what string, got, want []Edge) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.From != w.From || g.To != w.To || g.Kind != w.Kind || g.ArgIndex != w.ArgIndex || !locEqual(g.Loc, w.Loc) {
			return fmt.Sprintf("%s[%d]: %v -> %v %v #%d (%v), want %v -> %v %v #%d (%v)", what, i,
				g.From, g.To, g.Kind, g.ArgIndex, g.Loc, w.From, w.To, w.Kind, w.ArgIndex, w.Loc)
		}
	}
	return ""
}

// locEqual is Loc.Equal extended to the zero Loc return edges carry.
func locEqual(a, b ir.Loc) bool {
	if a.Base == nil || b.Base == nil {
		return a.Base == b.Base && len(a.Path) == 0 && len(b.Path) == 0
	}
	return a.Equal(b)
}

// diffGraph compares every statement's successor and predecessor lists of
// the built functions, and their unrooted reads against FlowAnalyze's.
func diffGraph(g *Graph, ref *refGraph, fns []*ir.Func) string {
	for _, fn := range fns {
		for _, s := range fn.Stmts() {
			if d := diffEdges(fmt.Sprintf("succs(%v)", s), edgeList(g.SuccEdges(s)), ref.succs[s]); d != "" {
				return d
			}
			if d := diffEdges(fmt.Sprintf("preds(%v)", s), edgeList(g.PredEdges(s)), ref.preds[s]); d != "" {
				return d
			}
		}
		var got []dataflow.DataDep
		ur := g.Unrooted(fn)
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				for _, l := range ur.At(s) {
					got = append(got, dataflow.DataDep{Use: s, Loc: l})
				}
			}
		}
		want := dataflow.FlowAnalyze(fn, g.PTS).Unrooted
		if len(got) != len(want) {
			return fmt.Sprintf("%s: %d unrooted reads, want %d", fn.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].Use != want[i].Use || !got[i].Loc.Equal(want[i].Loc) {
				return fmt.Sprintf("%s: unrooted[%d] = %v %v, want %v %v", fn.Name, i, got[i].Use, got[i].Loc, want[i].Use, want[i].Loc)
			}
		}
	}
	return ""
}

// oracleProgs returns the programs the edge-storage oracle runs over:
// randprog programs, the default kernelgen corpus linked into one program,
// and a program whose global edges carry field locations.
func oracleProgs(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := make(map[string]*ir.Program)
	for seed := int64(0); seed < 40; seed++ {
		progs[fmt.Sprintf("randprog-%d", seed)] = mustProg(t, randprog.Program(seed, 3, randprog.Default()))
	}
	corpus := kernelgen.Generate(kernelgen.DefaultConfig())
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
	progs["kernelgen-default"] = p
	progs["global-fields"] = mustProg(t, globalFieldsSrc)
	return progs
}

const globalFieldsSrc = `
struct cfg { int a; int b; };
struct cfg gcfg;
int get_b(void) { return gcfg.b; }
void set_b(int v) { gcfg.b = v; }
int sum(void) { return gcfg.a + gcfg.b; }
void set_a(int v) { gcfg.a = v; }
`

func reversed(fns []*ir.Func) []*ir.Func {
	out := make([]*ir.Func, len(fns))
	for i, fn := range fns {
		out[len(fns)-1-i] = fn
	}
	return out
}

// TestEdgesMatchReference: under forward and reverse Ensure orders, and
// for a partial build, every statement's edge lists equal the reference
// storage's: order, endpoints, kind, argument index and location.
func TestEdgesMatchReference(t *testing.T) {
	edges := 0
	for name, p := range oracleProgs(t) {
		var half []*ir.Func
		for i, fn := range p.FuncList {
			if i%2 == 0 {
				half = append(half, fn)
			}
		}
		for _, order := range []struct {
			name string
			fns  []*ir.Func
		}{{"forward", p.FuncList}, {"reverse", reversed(p.FuncList)}, {"half", half}} {
			g := New(p)
			ref := newRefGraph(g)
			for _, fn := range order.fns {
				g.Ensure(fn)
				ref.ensure(fn)
			}
			if d := diffGraph(g, ref, order.fns); d != "" {
				t.Fatalf("%s %s: %s", name, order.name, d)
			}
			for _, l := range ref.succs {
				edges += len(l)
			}
		}
	}
	if edges == 0 {
		t.Fatal("no edges: the oracle compared nothing")
	}
}

// TestEdgesMatchReferenceConcurrent: 8 goroutines building one graph from
// different starting functions, reading edge views while others install,
// end with the reference's lists (run under -race).
func TestEdgesMatchReferenceConcurrent(t *testing.T) {
	for _, name := range []string{"kernelgen-default", "global-fields", "randprog-3"} {
		p := oracleProgs(t)[name]
		g := New(p)
		const goroutines = 8
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range p.FuncList {
					fn := p.FuncList[(i+w*5)%len(p.FuncList)]
					for _, s := range fn.Stmts() {
						for _, v := range []Edges{g.SuccEdges(s), g.PredEdges(s)} {
							for k := 0; k < v.Len(); k++ {
								if l := v.At(k).Loc; l.Base != nil {
									_ = l.Key()
								}
							}
						}
					}
					g.Unrooted(fn)
				}
			}(w)
		}
		wg.Wait()
		ref := newRefGraph(g)
		for _, fn := range p.FuncList {
			ref.ensure(fn)
		}
		if d := diffGraph(g, ref, p.FuncList); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
}

// TestGlobalEdgeLocIndependentOfBuildOrder: a store -> load global edge
// carries the load's read location whichever function is built first.
func TestGlobalEdgeLocIndependentOfBuildOrder(t *testing.T) {
	p := mustProg(t, globalFieldsSrc)
	dump := func(order ...string) []string {
		g := New(p)
		for _, name := range order {
			g.Ensure(p.Funcs[name])
		}
		var out []string
		for _, name := range order {
			for _, s := range p.Funcs[name].Stmts() {
				for _, e := range edgeList(g.SuccEdges(s)) {
					loc := "-"
					if e.Loc.Base != nil {
						loc = e.Loc.Key()
					}
					out = append(out, fmt.Sprintf("%d->%d %v #%d %s", e.From.ID, e.To.ID, e.Kind, e.ArgIndex, loc))
				}
			}
		}
		sort.Strings(out)
		return out
	}
	a := dump("get_b", "set_b")
	b := dump("set_b", "get_b")
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("edges depend on build order:\nget_b first: %v\nset_b first: %v", a, b)
	}
	if !strings.Contains(fmt.Sprint(a), " global ") {
		t.Fatalf("no global edge between set_b and get_b: %v", a)
	}
}

// TestStoredEdgeSize: a stored edge stays 16 bytes.
func TestStoredEdgeSize(t *testing.T) {
	if n := unsafe.Sizeof(edge{}); n != 16 {
		t.Fatalf("stored edge is %d bytes, want 16", n)
	}
}
