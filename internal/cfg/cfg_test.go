package cfg

import (
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
)

func mustFn(t *testing.T, src, name string) *ir.Func {
	t.Helper()
	f, err := cir.ParseFile("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.NewProgram(f)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.Funcs[name]
	if fn == nil {
		t.Fatalf("missing func %s", name)
	}
	return fn
}

func findCall(fn *ir.Func, callee string) *ir.Stmt {
	for _, s := range fn.Stmts() {
		if s.IsCallTo(callee) {
			return s
		}
	}
	return nil
}

func findReturnWithVal(fn *ir.Func, val int64) *ir.Stmt {
	for _, s := range fn.Stmts() {
		if s.Kind == ir.StReturn {
			if lit, ok := s.X.(*cir.IntLit); ok && lit.Val == val {
				return s
			}
		}
	}
	return nil
}

const ifSrc = `
void work(int x);
void cleanup(int x);
int f(int x) {
	if (x > 0) {
		work(x);
	} else {
		cleanup(x);
	}
	return 0;
}`

func TestControlDepIfElse(t *testing.T) {
	fn := mustFn(t, ifSrc, "f")
	in := Analyze(fn)

	workCall := findCall(fn, "work")
	cleanCall := findCall(fn, "cleanup")
	ret := findReturnWithVal(fn, 0)

	wd := in.StmtDeps(workCall)
	if len(wd) != 1 {
		t.Fatalf("work deps: %+v", wd)
	}
	if wd[0].Branch.Kind != ir.StBranch || wd[0].EdgeIdx != 0 {
		t.Errorf("work dep edge: %+v", wd[0])
	}
	cd := in.StmtDeps(cleanCall)
	if len(cd) != 1 || cd[0].EdgeIdx != 1 {
		t.Errorf("cleanup dep edge: %+v", cd)
	}
	// The join-point return depends on neither edge.
	if deps := in.StmtDeps(ret); len(deps) != 0 {
		t.Errorf("return deps: %+v", deps)
	}
}

func TestControlDepNested(t *testing.T) {
	fn := mustFn(t, `
void inner(int x);
int f(int a, int b) {
	if (a > 0) {
		if (b > 0) {
			inner(a);
		}
	}
	return 0;
}`, "f")
	in := Analyze(fn)
	call := findCall(fn, "inner")
	deps := in.StmtDeps(call)
	if len(deps) != 2 {
		t.Fatalf("nested deps = %d, want 2: %+v", len(deps), deps)
	}
}

func TestControlDepEarlyReturnGuard(t *testing.T) {
	// The kernel error-handling idiom: `if (err) return err;` makes the
	// rest of the function control-dependent on the false edge.
	fn := mustFn(t, `
void work(int x);
int f(int err) {
	if (err) {
		return err;
	}
	work(err);
	return 0;
}`, "f")
	in := Analyze(fn)
	call := findCall(fn, "work")
	deps := in.StmtDeps(call)
	if len(deps) != 1 {
		t.Fatalf("work deps = %+v, want dependence on the guard", deps)
	}
	if deps[0].EdgeIdx != 1 {
		t.Errorf("work should depend on the FALSE edge of the guard, got edge %d", deps[0].EdgeIdx)
	}
}

func TestOrderLinear(t *testing.T) {
	fn := mustFn(t, `
void a1(void);
void a2(void);
void a3(void);
int f(void) {
	a1();
	a2();
	a3();
	return 0;
}`, "f")
	in := Analyze(fn)
	s1, s2, s3 := findCall(fn, "a1"), findCall(fn, "a2"), findCall(fn, "a3")
	if !in.ExecutedBefore(s1, s2) || !in.ExecutedBefore(s2, s3) {
		t.Errorf("linear order broken: %d %d %d", in.Order[s1], in.Order[s2], in.Order[s3])
	}
	if !in.OrderComparable(s1, s3) {
		t.Error("s1 and s3 should be comparable")
	}
	if !in.Reaches(s1, s3) || in.Reaches(s3, s1) {
		t.Error("reachability should be asymmetric in straight-line code")
	}
}

func TestOrderBranchesIncomparable(t *testing.T) {
	fn := mustFn(t, ifSrc, "f")
	in := Analyze(fn)
	workCall := findCall(fn, "work")
	cleanCall := findCall(fn, "cleanup")
	if in.OrderComparable(workCall, cleanCall) {
		t.Error("statements on exclusive branches must not be order-comparable")
	}
}

func TestOrderLoopBackEdge(t *testing.T) {
	fn := mustFn(t, `
void body(int i);
int f(int n) {
	int i;
	for (i = 0; i < n; i++) {
		body(i);
	}
	return 0;
}`, "f")
	in := Analyze(fn)
	call := findCall(fn, "body")
	ret := findReturnWithVal(fn, 0)
	if !in.ExecutedBefore(call, ret) {
		t.Error("loop body should be ordered before the post-loop return")
	}
	// Back edges must be marked somewhere in the CFG.
	var backSeen bool
	for _, b := range fn.Blocks {
		for i := range b.Succs {
			if in.IsBackEdge(b, i) {
				backSeen = true
			}
		}
	}
	if !backSeen {
		t.Error("no back edge marked in loop CFG")
	}
}

func TestPostDomChain(t *testing.T) {
	fn := mustFn(t, ifSrc, "f")
	in := Analyze(fn)
	// Every block except exit must have an immediate post-dominator.
	for _, b := range fn.Blocks {
		if b == fn.Exit {
			continue
		}
		if in.IPostDom[b.ID] == nil {
			t.Errorf("block b%d lacks a post-dominator", b.ID)
		}
	}
	if in.IPostDom[fn.Exit.ID] != nil {
		t.Error("exit block must not have a post-dominator")
	}
}

func TestFig5OrderFacts(t *testing.T) {
	// In the pre-patch Fig. 5 code put_device precedes the devt read;
	// post-patch the order is reversed. This asymmetry is exactly what
	// stage-2 path comparison consumes.
	pre := mustFn(t, cir.Fig5PreSource, "telem_remove")
	post := mustFn(t, cir.Fig5PostSource, "telem_remove")
	inPre, inPost := Analyze(pre), Analyze(post)

	prePut, preIda := findCall(pre, "put_device"), findCall(pre, "ida_free")
	postPut, postIda := findCall(post, "put_device"), findCall(post, "ida_free")

	if !inPre.ExecutedBefore(prePut, preIda) {
		t.Error("pre-patch: put_device should execute before ida_free")
	}
	if !inPost.ExecutedBefore(postIda, postPut) {
		t.Error("post-patch: ida_free should execute before put_device")
	}
}

func TestSwitchControlDeps(t *testing.T) {
	fn := mustFn(t, `
void handle(int x);
int f(int size) {
	switch (size) {
	case 1:
		handle(size);
		break;
	case 2:
		return -EINVAL;
	}
	return 0;
}`, "f")
	in := Analyze(fn)
	call := findCall(fn, "handle")
	deps := in.StmtDeps(call)
	if len(deps) != 1 || deps[0].Branch.Kind != ir.StSwitch {
		t.Fatalf("handle deps: %+v", deps)
	}
}
