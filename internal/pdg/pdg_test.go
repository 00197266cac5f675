package pdg

import (
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/solver"
)

func mustProg(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := cir.ParseFile("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.NewProgram(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func findCall(fn *ir.Func, callee string) *ir.Stmt {
	for _, s := range fn.Stmts() {
		if s.IsCallTo(callee) {
			return s
		}
	}
	return nil
}

func findRet(fn *ir.Func, val int64) *ir.Stmt {
	for _, s := range fn.Stmts() {
		if s.Kind == ir.StReturn {
			if lit, ok := s.X.(*cir.IntLit); ok && lit.Val == val {
				return s
			}
		}
	}
	return nil
}

// edgeList materializes an edge view.
func edgeList(v Edges) []Edge {
	var out []Edge
	for i := 0; i < v.Len(); i++ {
		out = append(out, v.At(i))
	}
	return out
}

func hasEdge(g *Graph, from, to *ir.Stmt, kind EdgeKind) bool {
	for _, e := range edgeList(g.SuccEdges(from)) {
		if e.To == to && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestInterproceduralReturnEdge(t *testing.T) {
	p := mustProg(t, cir.Fig3Source)
	g := BuildAll(p)

	bp := p.Funcs["buffer_prepare"]
	vbi := p.Funcs["cx23885_vbibuffer"]
	call := findCall(bp, "cx23885_vbibuffer")
	enomem := findRet(vbi, -12)
	if enomem == nil {
		t.Fatal("missing -ENOMEM return")
	}
	if !hasEdge(g, enomem, call, EdgeReturn) {
		t.Error("missing return edge: -ENOMEM return -> call site (the Fig. 6a new edge)")
	}
}

func TestInterproceduralParamEdge(t *testing.T) {
	p := mustProg(t, cir.Fig3Source)
	g := BuildAll(p)
	bp := p.Funcs["buffer_prepare"]
	vbi := p.Funcs["cx23885_vbibuffer"]
	call := findCall(bp, "cx23885_vbibuffer")
	var paramNode *ir.Stmt
	for _, s := range vbi.Entry.Stmts {
		if s.IsParamDef() {
			paramNode = s
		}
	}
	if !hasEdge(g, call, paramNode, EdgeParam) {
		t.Error("missing param edge: call -> risc param node")
	}
}

func TestPathConditionNullCheck(t *testing.T) {
	p := mustProg(t, cir.Fig3Source)
	g := BuildAll(p)
	vbi := p.Funcs["cx23885_vbibuffer"]
	enomem := findRet(vbi, -12)
	psi := g.PathCondition(enomem)
	// Ψ(-ENOMEM return) must entail risc->cpu == NULL.
	want := solver.Atom{Op: solver.OpEq, A: solver.Sym{Name: "risc->cpu"}, B: solver.Const{Val: 0}}
	if !solver.Implies(psi, want) {
		t.Errorf("Ψ = %s, want to imply risc->cpu == 0", solver.String(psi))
	}
	// The success return runs under the negation.
	ok := findRet(vbi, 0)
	psiOK := g.PathCondition(ok)
	if !solver.Implies(psiOK, solver.MkNot(want)) {
		t.Errorf("Ψ(ok) = %s, want to imply risc->cpu != 0", solver.String(psiOK))
	}
	if solver.Sat(solver.MkAnd(psi, psiOK)) {
		t.Error("the two return paths must have disjoint conditions")
	}
}

func TestPathConditionStableAcrossVersions(t *testing.T) {
	// Symbols are named by expression spelling, so the same source text in
	// pre-/post-patch programs yields comparable formulas.
	p1 := mustProg(t, cir.Fig3PreSource)
	p2 := mustProg(t, cir.Fig3Source)
	g1, g2 := BuildAll(p1), BuildAll(p2)
	r1 := findRet(p1.Funcs["cx23885_vbibuffer"], -12)
	r2 := findRet(p2.Funcs["cx23885_vbibuffer"], -12)
	if !solver.Equiv(g1.PathCondition(r1), g2.PathCondition(r2)) {
		t.Errorf("Ψ differs across identical code: %s vs %s",
			solver.String(g1.PathCondition(r1)), solver.String(g2.PathCondition(r2)))
	}
}

func TestGlobalStoreLoadEdge(t *testing.T) {
	p := mustProg(t, `
int shared_state;
int writer(int v) {
	shared_state = v;
	return 0;
}
int reader(void) {
	return shared_state;
}`)
	g := BuildAll(p)
	var store, load *ir.Stmt
	for _, s := range p.Funcs["writer"].Stmts() {
		if s.Kind == ir.StAssign && cir.ExprString(s.LHS) == "shared_state" {
			store = s
		}
	}
	for _, s := range p.Funcs["reader"].Stmts() {
		if s.Kind == ir.StReturn && s.X != nil {
			load = s
		}
	}
	if !hasEdge(g, store, load, EdgeGlobal) {
		t.Error("missing cross-function global edge")
	}
}

func TestIndirectCallParamEdges(t *testing.T) {
	p := mustProg(t, `
struct vb2_buffer { int n; };
struct vb2_ops { int (*buf_prepare)(struct vb2_buffer *vb); };
int prep_a(struct vb2_buffer *vb) { return vb->n; }
struct vb2_ops ops_a = { .buf_prepare = prep_a, };
int dispatch(struct vb2_ops *ops, struct vb2_buffer *vb) {
	return ops->buf_prepare(vb);
}`)
	g := BuildAll(p)
	var ind *ir.Stmt
	for _, s := range p.Funcs["dispatch"].Stmts() {
		if s.Kind == ir.StCall && s.Callee == "" {
			ind = s
		}
	}
	var param *ir.Stmt
	for _, s := range p.Funcs["prep_a"].Entry.Stmts {
		if s.IsParamDef() {
			param = s
		}
	}
	if !hasEdge(g, ind, param, EdgeParam) {
		t.Error("indirect call should link to resolved implementation's param")
	}
}

func TestOrderAPI(t *testing.T) {
	p := mustProg(t, cir.Fig5PreSource)
	g := BuildAll(p)
	fn := p.Funcs["telem_remove"]
	put := findCall(fn, "put_device")
	ida := findCall(fn, "ida_free")
	if g.Order(put) >= g.Order(ida) {
		t.Error("pre-patch: Ω(put_device) should precede Ω(ida_free)")
	}
}

func TestDemandDrivenEnsure(t *testing.T) {
	p := mustProg(t, `
int isolated(int x) { return x + 1; }
int other(int y) { return y - 1; }
`)
	var st Stats
	g := New(p).Counting(&st)
	fn := p.Funcs["isolated"]
	g.Ensure(fn)
	if !g.Built(fn) {
		t.Error("Ensure should mark the function built")
	}
	if g.Built(p.Funcs["other"]) {
		t.Error("Ensure must not eagerly build unrelated functions")
	}
	if st.EnsureCalls != 1 || st.EnsureBuilds != 1 {
		t.Errorf("Stats = %+v, want 1 call / 1 build", st)
	}
	g.Ensure(fn)
	if st.EnsureCalls != 2 || st.EnsureBuilds != 1 {
		t.Errorf("re-Ensure must not rebuild: %+v", st)
	}
}
