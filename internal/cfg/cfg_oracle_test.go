package cfg

import (
	"fmt"
	"testing"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/kernelgen"
	"seal/internal/randprog"
)

// refInfo is the reference control-flow analysis: the pointer-keyed maps
// Analyze was first written with. It computes the same facts by the same
// algorithms, so any difference from Info comes from the dense layout.
type refInfo struct {
	fn        *ir.Func
	ipostDom  map[*ir.Block]*ir.Block
	blockDeps map[*ir.Block][]CtrlDep
	order     map[*ir.Stmt]int
	rpo       []*ir.Block
	reach     map[*ir.Block]map[*ir.Block]bool
	transDeps map[*ir.Block][]CtrlDep
	backEdges map[*ir.Block][]bool
}

func refAnalyze(fn *ir.Func) *refInfo {
	in := &refInfo{
		fn:        fn,
		ipostDom:  make(map[*ir.Block]*ir.Block),
		blockDeps: make(map[*ir.Block][]CtrlDep),
		order:     make(map[*ir.Stmt]int),
	}
	in.markBackEdges()
	in.computeRPO()
	n := 0
	for _, b := range in.rpo {
		for _, s := range b.Stmts {
			in.order[s] = n
			n++
		}
	}
	in.computePostDom()
	in.computeControlDeps()
	in.computeReach()
	in.transDeps = make(map[*ir.Block][]CtrlDep, len(fn.Blocks))
	for _, b := range fn.Blocks {
		in.transitiveDeps(b, make(map[*ir.Block]bool))
	}
	return in
}

func (in *refInfo) markBackEdges() {
	in.backEdges = make(map[*ir.Block][]bool, len(in.fn.Blocks))
	state := make(map[*ir.Block]int)
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		state[b] = 1
		marks := make([]bool, len(b.Succs))
		in.backEdges[b] = marks
		for i, s := range b.Succs {
			switch state[s] {
			case 0:
				dfs(s)
			case 1:
				marks[i] = true
			}
		}
		state[b] = 2
	}
	if in.fn.Entry != nil {
		dfs(in.fn.Entry)
	}
	for _, b := range in.fn.Blocks {
		if state[b] == 0 {
			dfs(b)
		}
	}
}

func (in *refInfo) forwardSuccs(b *ir.Block) []*ir.Block {
	var out []*ir.Block
	marks := in.backEdges[b]
	for i, s := range b.Succs {
		if i >= len(marks) || !marks[i] {
			out = append(out, s)
		}
	}
	return out
}

func (in *refInfo) computeRPO() {
	visited := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b] = true
		succs := in.forwardSuccs(b)
		for i := len(succs) - 1; i >= 0; i-- {
			if !visited[succs[i]] {
				dfs(succs[i])
			}
		}
		post = append(post, b)
	}
	if in.fn.Entry != nil {
		dfs(in.fn.Entry)
	}
	for _, b := range in.fn.Blocks {
		if !visited[b] {
			dfs(b)
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	in.rpo = post
}

func (in *refInfo) computePostDom() {
	exit := in.fn.Exit
	if exit == nil {
		return
	}
	visited := make(map[*ir.Block]bool)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b] = true
		for _, p := range b.Preds {
			if !visited[p] {
				dfs(p)
			}
		}
		post = append(post, b)
	}
	dfs(exit)
	order := make(map[*ir.Block]int, len(post))
	rpo := make([]*ir.Block, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	for i, b := range rpo {
		order[b] = i
	}
	ipdom := in.ipostDom
	ipdom[exit] = exit
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for order[a] > order[b] {
				a = ipdom[a]
			}
			for order[b] > order[a] {
				b = ipdom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == exit {
				continue
			}
			var newIdom *ir.Block
			for _, s := range b.Succs {
				if ipdom[s] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != nil && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	ipdom[exit] = nil
}

func (in *refInfo) computeControlDeps() {
	for _, b := range in.fn.Blocks {
		term := b.Terminator()
		if term == nil || len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			stop := in.ipostDom[b]
			v := s
			for v != nil && v != stop {
				in.blockDeps[v] = append(in.blockDeps[v], CtrlDep{Branch: term, EdgeIdx: i})
				next := in.ipostDom[v]
				if next == v {
					break
				}
				v = next
			}
		}
	}
}

func (in *refInfo) computeReach() {
	in.reach = make(map[*ir.Block]map[*ir.Block]bool, len(in.fn.Blocks))
	for i := len(in.rpo) - 1; i >= 0; i-- {
		b := in.rpo[i]
		set := make(map[*ir.Block]bool)
		set[b] = true
		for _, s := range in.forwardSuccs(b) {
			for k := range in.reach[s] {
				set[k] = true
			}
			set[s] = true
		}
		in.reach[b] = set
	}
}

func (in *refInfo) transitiveDeps(b *ir.Block, onPath map[*ir.Block]bool) []CtrlDep {
	if deps, ok := in.transDeps[b]; ok {
		return deps
	}
	if onPath[b] {
		return nil
	}
	onPath[b] = true
	defer delete(onPath, b)
	seen := make(map[*ir.Stmt]map[int]bool)
	var out []CtrlDep
	add := func(d CtrlDep) {
		if seen[d.Branch] == nil {
			seen[d.Branch] = make(map[int]bool)
		}
		if !seen[d.Branch][d.EdgeIdx] {
			seen[d.Branch][d.EdgeIdx] = true
			out = append(out, d)
		}
	}
	for _, d := range in.blockDeps[b] {
		add(d)
		for _, up := range in.transitiveDeps(d.Branch.Blk, onPath) {
			add(up)
		}
	}
	in.transDeps[b] = out
	return out
}

func (in *refInfo) stmtDeps(s *ir.Stmt) []CtrlDep { return in.transDeps[s.Blk] }

func (in *refInfo) reaches(a, b *ir.Stmt) bool {
	if a.Blk == b.Blk {
		return in.order[a] < in.order[b]
	}
	return in.reach[a.Blk][b.Blk]
}

// diffInfo describes the first difference between the dense facts and the
// reference's, or "".
func diffInfo(got *Info, want *refInfo) string {
	fn := want.fn
	if len(got.Order) != len(want.order) {
		return fmt.Sprintf("Order: %d stmts, want %d", len(got.Order), len(want.order))
	}
	for _, b := range fn.Blocks {
		if got.IPostDom[b.ID] != want.ipostDom[b] {
			return fmt.Sprintf("IPostDom[b%d] = %v, want %v", b.ID, got.IPostDom[b.ID], want.ipostDom[b])
		}
		for i := range b.Succs {
			marks := want.backEdges[b]
			if got.IsBackEdge(b, i) != (i < len(marks) && marks[i]) {
				return fmt.Sprintf("IsBackEdge(b%d, %d) differs", b.ID, i)
			}
		}
	}
	stmts := fn.Stmts()
	for _, s := range stmts {
		if got.Order[s] != want.order[s] {
			return fmt.Sprintf("Order[%v] = %d, want %d", s, got.Order[s], want.order[s])
		}
		g, w := got.StmtDeps(s), want.stmtDeps(s)
		if len(g) != len(w) {
			return fmt.Sprintf("StmtDeps(%v): %d deps, want %d", s, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Sprintf("StmtDeps(%v)[%d] = %+v, want %+v", s, i, g[i], w[i])
			}
		}
	}
	for _, a := range stmts {
		for _, b := range stmts {
			if got.Reaches(a, b) != want.reaches(a, b) {
				return fmt.Sprintf("Reaches(%v, %v) = %v, want %v", a, b, got.Reaches(a, b), want.reaches(a, b))
			}
		}
	}
	return ""
}

// oracleProgs returns the programs the CFG oracle runs over: randprog
// programs with loops, nested branches and early returns, and the
// default kernelgen corpus linked into one program.
func oracleProgs(t *testing.T) map[string]*ir.Program {
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
	return progs
}

// TestAnalyzeMatchesReference: the Block.ID-indexed facts equal the
// pointer-keyed reference's on every function: post-dominators, back
// edges, Ω, transitive control dependences in order, and Reaches for every
// statement pair.
func TestAnalyzeMatchesReference(t *testing.T) {
	deps, reach := 0, 0
	for name, p := range oracleProgs(t) {
		for _, fn := range p.FuncList {
			got := Analyze(fn)
			if d := diffInfo(got, refAnalyze(fn)); d != "" {
				t.Fatalf("%s %s: %s", name, fn.Name, d)
			}
			stmts := fn.Stmts()
			for _, s := range stmts {
				deps += len(got.StmtDeps(s))
				if got.Reaches(stmts[0], s) {
					reach++
				}
			}
		}
	}
	if deps == 0 || reach == 0 {
		t.Fatalf("%d control deps, %d reachable pairs: the oracle compared nothing", deps, reach)
	}
}
