// Package cfg computes control-flow analyses over the IR: post-dominators,
// control dependence (the Ec edges of the PDG, paper Def. 6.1), the
// topological flow order Ω (Def. 6.2), and forward reachability used to
// decide whether two use sites are order-comparable.
//
// Per-block facts live in slices indexed by Block.ID, which lowering
// numbers densely from 0 in fn.Blocks order with the exit block last.
package cfg

import (
	"seal/internal/ir"
)

// CtrlDep records that a statement's execution is decided by a branch
// statement taking a specific out-edge.
type CtrlDep struct {
	Branch  *ir.Stmt // the branch/switch terminator
	EdgeIdx int      // which successor edge of Branch.Blk
}

// Info holds the control-flow facts of one function.
type Info struct {
	Fn *ir.Func

	// IPostDom[b.ID] is b's immediate post-dominator (nil for the exit
	// block and for blocks that cannot reach exit).
	IPostDom []*ir.Block

	// BlockDeps[b.ID] lists the branches b is control-dependent on.
	BlockDeps [][]CtrlDep

	// Order is the flow order Ω: Order[s1] < Order[s2] implies s1 executes
	// before s2 whenever both lie on one execution path (back edges are
	// ignored so the order is a DAG topological order).
	Order map[*ir.Stmt]int

	// rpo is the block order used for Ω.
	rpo []*ir.Block

	// reach[b.ID] is the bitset (bit c.ID) of blocks reachable from b
	// along forward edges, b included; rows share one backing array.
	reach     [][]uint64
	transDeps [][]CtrlDep // transitive control dependence, by Block.ID
	backEdges [][]bool    // per-successor loop back-edge marks, by Block.ID
}

// Analyze computes all control-flow facts for fn.
func Analyze(fn *ir.Func) *Info {
	n := len(fn.Blocks)
	in := &Info{
		Fn:        fn,
		IPostDom:  make([]*ir.Block, n),
		BlockDeps: make([][]CtrlDep, n),
		Order:     make(map[*ir.Stmt]int),
	}
	in.markBackEdges()
	in.computeRPO()
	in.computeOrder()
	in.computePostDom()
	in.computeControlDeps()
	in.computeReach()
	in.computeTransDeps()
	return in
}

// computeTransDeps fills the transitive control-dependence cache for every
// block, in block order, so that an Info is immutable once Analyze returns
// and StmtDeps is a pure read (safe for concurrent detectors sharing one
// PDG).
func (in *Info) computeTransDeps() {
	n := len(in.Fn.Blocks)
	in.transDeps = make([][]CtrlDep, n)
	done := make([]bool, n)
	onPath := make([]bool, n)
	for _, b := range in.Fn.Blocks {
		in.transitiveDeps(b, done, onPath)
	}
}

// markBackEdges records loop back edges via DFS. Back-edge facts live in
// the Info (not on the shared IR blocks) so that independent analyses of
// the same program — e.g. parallel detectors — never write shared state.
func (in *Info) markBackEdges() {
	blocks := in.Fn.Blocks
	nEdges := 0
	for _, b := range blocks {
		nEdges += len(b.Succs)
	}
	marks := make([]bool, nEdges)
	in.backEdges = make([][]bool, len(blocks))
	for _, b := range blocks {
		in.backEdges[b.ID], marks = marks[:len(b.Succs):len(b.Succs)], marks[len(b.Succs):]
	}
	state := make([]uint8, len(blocks)) // 0 unvisited, 1 on stack, 2 done
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		state[b.ID] = 1
		for i, s := range b.Succs {
			switch state[s.ID] {
			case 0:
				dfs(s)
			case 1:
				in.backEdges[b.ID][i] = true
			}
		}
		state[b.ID] = 2
	}
	if in.Fn.Entry != nil {
		dfs(in.Fn.Entry)
	}
	// Blocks unreachable from entry (dangling code after returns).
	for _, b := range blocks {
		if state[b.ID] == 0 {
			dfs(b)
		}
	}
}

// IsBackEdge reports whether the i-th successor edge of b closes a loop.
func (in *Info) IsBackEdge(b *ir.Block, i int) bool {
	marks := in.backEdges[b.ID]
	return i < len(marks) && marks[i]
}

func (in *Info) computeRPO() {
	visited := make([]bool, len(in.Fn.Blocks))
	post := make([]*ir.Block, 0, len(in.Fn.Blocks))
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b.ID] = true
		// Visit forward successors in reverse so that loop bodies (the
		// first successor of a loop header) finish last and therefore
		// precede the loop exit in the resulting flow order Ω.
		marks := in.backEdges[b.ID]
		for i := len(b.Succs) - 1; i >= 0; i-- {
			if s := b.Succs[i]; !marks[i] && !visited[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if in.Fn.Entry != nil {
		dfs(in.Fn.Entry)
	}
	for _, b := range in.Fn.Blocks {
		if !visited[b.ID] {
			dfs(b)
		}
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	in.rpo = post
}

func (in *Info) computeOrder() {
	n := 0
	for _, b := range in.rpo {
		for _, s := range b.Stmts {
			in.Order[s] = n
			n++
		}
	}
}

// computePostDom runs the iterative dominance algorithm on the reversed CFG
// rooted at the exit block.
func (in *Info) computePostDom() {
	exit := in.Fn.Exit
	if exit == nil {
		return
	}
	// Reverse post-order of the reversed CFG.
	visited := make([]bool, len(in.Fn.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		visited[b.ID] = true
		for _, p := range b.Preds {
			if !visited[p.ID] {
				dfs(p)
			}
		}
		post = append(post, b)
	}
	dfs(exit)
	// order[b.ID] is b's position in rpo; only blocks on rpo are ever
	// compared (ipdom chains stay within it).
	order := make([]int, len(in.Fn.Blocks))
	rpo := make([]*ir.Block, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	for i, b := range rpo {
		order[b.ID] = i
	}

	ipdom := in.IPostDom
	ipdom[exit.ID] = exit
	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for order[a.ID] > order[b.ID] {
				a = ipdom[a.ID]
			}
			for order[b.ID] > order[a.ID] {
				b = ipdom[b.ID]
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
				if ipdom[s.ID] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = s
				} else {
					newIdom = intersect(newIdom, s)
				}
			}
			if newIdom != nil && ipdom[b.ID] != newIdom {
				ipdom[b.ID] = newIdom
				changed = true
			}
		}
	}
	ipdom[exit.ID] = nil
}

// computeControlDeps derives block-level control dependence from the
// post-dominator tree (Ferrante–Ottenstein–Warren).
func (in *Info) computeControlDeps() {
	for _, b := range in.Fn.Blocks {
		term := b.Terminator()
		if term == nil || len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			// Walk up the post-dominator tree from s until reaching
			// ipdom(b); every block on the way is control dependent on
			// (b, edge i).
			stop := in.IPostDom[b.ID]
			v := s
			for v != nil && v != stop {
				in.BlockDeps[v.ID] = append(in.BlockDeps[v.ID], CtrlDep{Branch: term, EdgeIdx: i})
				next := in.IPostDom[v.ID]
				if next == v {
					break
				}
				v = next
			}
		}
	}
}

func (in *Info) computeReach() {
	n := len(in.Fn.Blocks)
	words := (n + 63) / 64
	rows := make([]uint64, n*words)
	in.reach = make([][]uint64, n)
	for i := range in.reach {
		in.reach[i] = rows[i*words : (i+1)*words : (i+1)*words]
	}
	// Process blocks in reverse RPO so successors are done first
	// (forward edges only — the graph is a DAG).
	for i := len(in.rpo) - 1; i >= 0; i-- {
		b := in.rpo[i]
		row := in.reach[b.ID]
		row[b.ID>>6] |= 1 << (b.ID & 63)
		marks := in.backEdges[b.ID]
		for k, s := range b.Succs {
			if marks[k] {
				continue
			}
			for w, bits := range in.reach[s.ID] {
				row[w] |= bits
			}
		}
	}
}

// StmtDeps returns the transitive control dependences of a statement: every
// branch edge that governs its execution. Path conditions Ψ are the
// conjunction of these edges' conditions (quasi-path-sensitivity, Def. 6.2).
func (in *Info) StmtDeps(s *ir.Stmt) []CtrlDep {
	return in.transDeps[s.Blk.ID]
}

// transitiveDeps computes b's transitive control dependences depth-first.
// done marks blocks whose result is cached (nil is a valid result);
// onPath guards against cycles through loops (irreducible dependence).
func (in *Info) transitiveDeps(b *ir.Block, done, onPath []bool) []CtrlDep {
	if done[b.ID] {
		return in.transDeps[b.ID]
	}
	if onPath[b.ID] {
		return nil
	}
	onPath[b.ID] = true
	defer func() { onPath[b.ID] = false }()
	var out []CtrlDep
	add := func(d CtrlDep) {
		// Dependence lists are short: a scan beats a set.
		for _, have := range out {
			if have == d {
				return
			}
		}
		out = append(out, d)
	}
	for _, d := range in.BlockDeps[b.ID] {
		add(d)
		for _, up := range in.transitiveDeps(d.Branch.Blk, done, onPath) {
			add(up)
		}
	}
	in.transDeps[b.ID] = out
	done[b.ID] = true
	return out
}

// Reaches reports whether execution can flow from a to b along forward
// edges (a strictly before b, or a == b with a preceding b in the block).
func (in *Info) Reaches(a, b *ir.Stmt) bool {
	if a.Blk == b.Blk {
		return in.Order[a] < in.Order[b]
	}
	id := b.Blk.ID
	return in.reach[a.Blk.ID][id>>6]&(1<<(id&63)) != 0
}

// OrderComparable reports whether two statements lie on a common execution
// path, i.e. one can flow to the other ("the orders of use sites are
// comparable", paper §5 step 2).
func (in *Info) OrderComparable(a, b *ir.Stmt) bool {
	return in.Reaches(a, b) || in.Reaches(b, a)
}

// ExecutedBefore reports whether a must come before b in the flow order
// when both execute (Ω(a) < Ω(b)).
func (in *Info) ExecutedBefore(a, b *ir.Stmt) bool {
	return in.Order[a] < in.Order[b]
}
