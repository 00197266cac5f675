package ir

import (
	"fmt"

	"seal/internal/cir"
)

// lowerer lowers one function body to CFG form.
type lowerer struct {
	p    *Program
	fn   *Func
	cur  *Block
	file *cir.File

	breakTargets    []*Block
	continueTargets []*Block
	nextTemp        int

	labelBlocks    map[string]*Block
	declaredLabels map[string]bool
	usedLabels     map[string]int // label -> first goto line
}

func (p *Program) lowerFunc(file *cir.File, fd *cir.FuncDecl) (*Func, error) {
	fn := &Func{
		Name: fd.Name,
		Decl: fd,
		File: file.Name,
		Prog: p,
		vars: make(map[string]*Var),
	}
	for i, pd := range fd.Params {
		name := pd.Name
		if name == "" {
			name = fmt.Sprintf("arg%d", i)
		}
		v := &Var{
			ID: p.nextVarID, Name: name, Type: pd.Type, Kind: VarParam,
			ParamIndex: i, Fn: fn, DeclLine: pd.Pos.Line, Initialized: true,
		}
		p.nextVarID++
		fn.Params = append(fn.Params, v)
		fn.vars[name] = v
	}
	lw := &lowerer{
		p: p, fn: fn, file: file,
		labelBlocks:    make(map[string]*Block),
		declaredLabels: make(map[string]bool),
		usedLabels:     make(map[string]int),
	}
	fn.Entry = lw.newBlock()
	lw.cur = fn.Entry
	// One parameter-definition node per parameter: these are the PDG
	// sources for interface arguments.
	for _, v := range fn.Params {
		s := lw.emit(&Stmt{Kind: StNop, Line: v.DeclLine, LHS: &cir.Ident{Name: v.Name}})
		s.Defs = []Loc{{Base: v}}
	}
	fn.Exit = lw.newBlockDetached()
	if err := lw.lowerStmt(fd.Body); err != nil {
		return nil, err
	}
	// Implicit return at the end of the body.
	if lw.cur != nil {
		lw.emit(&Stmt{Kind: StReturn, Line: fd.EndPos.Line})
		lw.edge(lw.cur, fn.Exit, nil, false)
		lw.cur = nil
	}
	for name, line := range lw.usedLabels {
		if !lw.declaredLabels[name] {
			return nil, fmt.Errorf("%s: goto undefined label %q (line %d)", fd.Name, name, line)
		}
	}
	fn.Blocks = append(fn.Blocks, fn.Exit)
	exitNop := &Stmt{Kind: StNop, Line: fd.EndPos.Line, Fn: fn, Blk: fn.Exit, ID: p.nextStmtID}
	p.nextStmtID++
	fn.Exit.Stmts = append(fn.Exit.Stmts, exitNop)
	p.allStmts = append(p.allStmts, exitNop)
	lw.computeDefUse()
	return fn, nil
}

func (lw *lowerer) newBlock() *Block {
	b := &Block{ID: len(lw.fn.Blocks), Fn: lw.fn}
	lw.fn.Blocks = append(lw.fn.Blocks, b)
	return b
}

// newBlockDetached creates a block that is appended to fn.Blocks later
// (used for the exit block so it sorts last).
func (lw *lowerer) newBlockDetached() *Block {
	return &Block{ID: -1, Fn: lw.fn}
}

func (lw *lowerer) edge(from, to *Block, cond cir.Expr, negated bool) {
	from.Succs = append(from.Succs, to)
	from.EdgeConds = append(from.EdgeConds, cond)
	from.Negated = append(from.Negated, negated)
	to.Preds = append(to.Preds, from)
}

func (lw *lowerer) emit(s *Stmt) *Stmt {
	s.ID = lw.p.nextStmtID
	lw.p.nextStmtID++
	s.Fn = lw.fn
	s.Blk = lw.cur
	lw.cur.Stmts = append(lw.cur.Stmts, s)
	lw.p.allStmts = append(lw.p.allStmts, s)
	return s
}

func (lw *lowerer) declareLocal(name string, typ *cir.Type, line int, initialized bool) *Var {
	if v, ok := lw.fn.vars[name]; ok {
		return v
	}
	v := &Var{
		ID: lw.p.nextVarID, Name: name, Type: typ, Kind: VarLocal,
		Fn: lw.fn, DeclLine: line, Initialized: initialized,
	}
	lw.p.nextVarID++
	lw.fn.Locals = append(lw.fn.Locals, v)
	lw.fn.vars[name] = v
	return v
}

func (lw *lowerer) newTemp(typ *cir.Type, line int) *Var {
	name := fmt.Sprintf("__t%d", lw.nextTemp)
	lw.nextTemp++
	v := &Var{
		ID: lw.p.nextVarID, Name: name, Type: typ, Kind: VarTemp,
		Fn: lw.fn, DeclLine: line, Initialized: true,
	}
	lw.p.nextVarID++
	lw.fn.Locals = append(lw.fn.Locals, v)
	lw.fn.vars[name] = v
	return v
}

// hoistCalls rewrites e so that no CallExpr remains nested: each call is
// emitted as a StCall statement assigning a fresh temp, post-order.
func (lw *lowerer) hoistCalls(e cir.Expr, line int) cir.Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *cir.Ident, *cir.IntLit, *cir.StrLit, *cir.SizeofExpr:
		return e
	case *cir.UnaryExpr:
		nx := lw.hoistCalls(x.X, line)
		if nx == x.X {
			return x
		}
		c := *x
		c.X = nx
		return &c
	case *cir.BinaryExpr:
		na := lw.hoistCalls(x.X, line)
		nb := lw.hoistCalls(x.Y, line)
		if na == x.X && nb == x.Y {
			return x
		}
		c := *x
		c.X, c.Y = na, nb
		return &c
	case *cir.CondExpr:
		c := *x
		c.Cond = lw.hoistCalls(x.Cond, line)
		c.Then = lw.hoistCalls(x.Then, line)
		c.Else = lw.hoistCalls(x.Else, line)
		return &c
	case *cir.IndexExpr:
		c := *x
		c.X = lw.hoistCalls(x.X, line)
		c.Index = lw.hoistCalls(x.Index, line)
		return &c
	case *cir.FieldExpr:
		c := *x
		c.X = lw.hoistCalls(x.X, line)
		return &c
	case *cir.CastExpr:
		c := *x
		c.X = lw.hoistCalls(x.X, line)
		return &c
	case *cir.CallExpr:
		stmt := lw.lowerCall(x, nil, line)
		retType := lw.callRetType(x)
		tmp := lw.newTemp(retType, line)
		stmt.LHS = &cir.Ident{Name: tmp.Name}
		return &cir.Ident{Name: tmp.Name}
	case *cir.StructInitExpr:
		return e
	}
	return e
}

func (lw *lowerer) callRetType(x *cir.CallExpr) *cir.Type {
	if id, ok := x.Fun.(*cir.Ident); ok {
		if callee, ok := lw.p.Funcs[id.Name]; ok {
			return callee.Decl.Ret
		}
		if proto, ok := lw.p.Protos[id.Name]; ok {
			return proto.Ret
		}
	}
	t := lw.fn.typeOf(x.Fun)
	if t.IsFuncPtr() {
		return t.Elem.Sig.Ret
	}
	return cir.IntType
}

// lowerCall emits a StCall for x (args hoisted first); lhs may be nil.
func (lw *lowerer) lowerCall(x *cir.CallExpr, lhs cir.Expr, line int) *Stmt {
	args := make([]cir.Expr, len(x.Args))
	for i, a := range x.Args {
		args[i] = lw.hoistCalls(a, line)
	}
	s := &Stmt{Kind: StCall, Line: line, LHS: lhs, Args: args}
	if id, ok := x.Fun.(*cir.Ident); ok {
		s.Callee = id.Name
	} else {
		s.CalleeExpr = lw.hoistCalls(x.Fun, line)
	}
	return lw.emit(s)
}

func exprLine(e cir.Expr, fallback int) int {
	if e != nil && e.ExprPos().IsValid() {
		return e.ExprPos().Line
	}
	return fallback
}

func stmtLine(s cir.Stmt) int { return s.StmtPos().Line }

func (lw *lowerer) lowerStmt(s cir.Stmt) error {
	if lw.cur == nil {
		// Unreachable code after return/break: lower into a fresh dangling
		// block to keep statements addressable.
		lw.cur = lw.newBlock()
	}
	switch x := s.(type) {
	case nil:
		return nil
	case *cir.BlockStmt:
		for _, sub := range x.Stmts {
			if err := lw.lowerStmt(sub); err != nil {
				return err
			}
		}
		return nil
	case *cir.DeclStmt:
		v := lw.declareLocal(x.Name, x.Type, stmtLine(x), x.Init != nil)
		if x.Init != nil {
			line := stmtLine(x)
			if call, ok := x.Init.(*cir.CallExpr); ok {
				lw.lowerCall(call, &cir.Ident{Name: v.Name}, line)
				return nil
			}
			rhs := lw.hoistCalls(x.Init, line)
			lw.emit(&Stmt{Kind: StAssign, Line: line, LHS: &cir.Ident{Name: v.Name}, RHS: rhs})
		}
		return nil
	case *cir.AssignStmt:
		line := stmtLine(x)
		rhsAST := x.RHS
		if x.Op == cir.TokPlusEq {
			rhsAST = &cir.BinaryExpr{Op: cir.TokPlus, X: x.LHS, Y: x.RHS}
		} else if x.Op == cir.TokMinusEq {
			rhsAST = &cir.BinaryExpr{Op: cir.TokMinus, X: x.LHS, Y: x.RHS}
		}
		lhs := lw.hoistCalls(x.LHS, line)
		if call, ok := rhsAST.(*cir.CallExpr); ok && x.Op == cir.TokAssign {
			lw.lowerCall(call, lhs, line)
			return nil
		}
		rhs := lw.hoistCalls(rhsAST, line)
		lw.emit(&Stmt{Kind: StAssign, Line: line, LHS: lhs, RHS: rhs})
		return nil
	case *cir.ExprStmt:
		line := stmtLine(x)
		switch e := x.X.(type) {
		case *cir.CallExpr:
			lw.lowerCall(e, nil, line)
		case *cir.UnaryExpr:
			if e.Op == cir.TokInc || e.Op == cir.TokDec {
				op := cir.TokPlus
				if e.Op == cir.TokDec {
					op = cir.TokMinus
				}
				rhs := &cir.BinaryExpr{Op: op, X: e.X, Y: &cir.IntLit{Val: 1}}
				lw.emit(&Stmt{Kind: StAssign, Line: line, LHS: e.X, RHS: rhs})
				return nil
			}
			lw.hoistCalls(e, line)
		default:
			lw.hoistCalls(e, line)
		}
		return nil
	case *cir.ReturnStmt:
		line := stmtLine(x)
		var val cir.Expr
		if x.X != nil {
			val = lw.hoistCalls(x.X, line)
		}
		lw.emit(&Stmt{Kind: StReturn, Line: line, X: val})
		lw.edge(lw.cur, lw.fn.Exit, nil, false)
		lw.cur = nil
		return nil
	case *cir.IfStmt:
		return lw.lowerIf(x)
	case *cir.WhileStmt:
		return lw.lowerWhile(x)
	case *cir.ForStmt:
		return lw.lowerFor(x)
	case *cir.SwitchStmt:
		return lw.lowerSwitch(x)
	case *cir.BreakStmt:
		if len(lw.breakTargets) == 0 {
			return fmt.Errorf("%s: break outside loop/switch", lw.fn.Name)
		}
		lw.edge(lw.cur, lw.breakTargets[len(lw.breakTargets)-1], nil, false)
		lw.cur = nil
		return nil
	case *cir.ContinueStmt:
		if len(lw.continueTargets) == 0 {
			return fmt.Errorf("%s: continue outside loop", lw.fn.Name)
		}
		lw.edge(lw.cur, lw.continueTargets[len(lw.continueTargets)-1], nil, false)
		lw.cur = nil
		return nil
	case *cir.DoWhileStmt:
		return lw.lowerDoWhile(x)
	case *cir.LabelStmt:
		lb := lw.labelBlock(x.Name)
		lw.declaredLabels[x.Name] = true
		if lw.cur != nil {
			lw.edge(lw.cur, lb, nil, false)
		}
		lw.cur = lb
		return nil
	case *cir.GotoStmt:
		lb := lw.labelBlock(x.Label)
		if _, seen := lw.usedLabels[x.Label]; !seen {
			lw.usedLabels[x.Label] = stmtLine(x)
		}
		lw.edge(lw.cur, lb, nil, false)
		lw.cur = nil
		return nil
	}
	return fmt.Errorf("%s: unsupported statement %T", lw.fn.Name, s)
}

func (lw *lowerer) lowerIf(x *cir.IfStmt) error {
	line := exprLine(x.Cond, stmtLine(x))
	cond := lw.hoistCalls(x.Cond, line)
	lw.emit(&Stmt{Kind: StBranch, Line: line, X: cond})
	condBlk := lw.cur

	thenBlk := lw.newBlock()
	lw.edge(condBlk, thenBlk, cond, false)
	lw.cur = thenBlk
	if err := lw.lowerStmt(x.Then); err != nil {
		return err
	}
	thenEnd := lw.cur

	var elseEnd *Block
	elseBlk := lw.newBlock()
	lw.edge(condBlk, elseBlk, cond, true)
	lw.cur = elseBlk
	if x.Else != nil {
		if err := lw.lowerStmt(x.Else); err != nil {
			return err
		}
	}
	elseEnd = lw.cur

	if thenEnd == nil && elseEnd == nil {
		lw.cur = nil
		return nil
	}
	join := lw.newBlock()
	if thenEnd != nil {
		lw.edge(thenEnd, join, nil, false)
	}
	if elseEnd != nil {
		lw.edge(elseEnd, join, nil, false)
	}
	lw.cur = join
	return nil
}

func (lw *lowerer) lowerWhile(x *cir.WhileStmt) error {
	header := lw.newBlock()
	lw.edge(lw.cur, header, nil, false)
	lw.cur = header
	line := exprLine(x.Cond, stmtLine(x))
	cond := lw.hoistCalls(x.Cond, line)
	lw.emit(&Stmt{Kind: StBranch, Line: line, X: cond})
	condBlk := lw.cur

	body := lw.newBlock()
	exit := lw.newBlock()
	lw.edge(condBlk, body, cond, false)
	lw.edge(condBlk, exit, cond, true)

	lw.breakTargets = append(lw.breakTargets, exit)
	lw.continueTargets = append(lw.continueTargets, header)
	lw.cur = body
	if err := lw.lowerStmt(x.Body); err != nil {
		return err
	}
	if lw.cur != nil {
		lw.edge(lw.cur, header, nil, false)
	}
	lw.breakTargets = lw.breakTargets[:len(lw.breakTargets)-1]
	lw.continueTargets = lw.continueTargets[:len(lw.continueTargets)-1]
	lw.cur = exit
	return nil
}

func (lw *lowerer) lowerFor(x *cir.ForStmt) error {
	if x.Init != nil {
		if err := lw.lowerStmt(x.Init); err != nil {
			return err
		}
	}
	header := lw.newBlock()
	lw.edge(lw.cur, header, nil, false)
	lw.cur = header

	var cond cir.Expr
	line := stmtLine(x)
	if x.Cond != nil {
		line = exprLine(x.Cond, line)
		cond = lw.hoistCalls(x.Cond, line)
		lw.emit(&Stmt{Kind: StBranch, Line: line, X: cond})
	}
	condBlk := lw.cur

	body := lw.newBlock()
	exit := lw.newBlock()
	postBlk := lw.newBlock()
	if cond != nil {
		lw.edge(condBlk, body, cond, false)
		lw.edge(condBlk, exit, cond, true)
	} else {
		lw.edge(condBlk, body, nil, false)
	}

	lw.breakTargets = append(lw.breakTargets, exit)
	lw.continueTargets = append(lw.continueTargets, postBlk)
	lw.cur = body
	if err := lw.lowerStmt(x.Body); err != nil {
		return err
	}
	if lw.cur != nil {
		lw.edge(lw.cur, postBlk, nil, false)
	}
	lw.breakTargets = lw.breakTargets[:len(lw.breakTargets)-1]
	lw.continueTargets = lw.continueTargets[:len(lw.continueTargets)-1]

	lw.cur = postBlk
	if x.Post != nil {
		if err := lw.lowerStmt(x.Post); err != nil {
			return err
		}
	}
	if lw.cur != nil {
		lw.edge(lw.cur, header, nil, false)
	}
	lw.cur = exit
	return nil
}

// labelBlock returns (creating on first reference) the block a label
// names; goto and label declaration may arrive in either order.
func (lw *lowerer) labelBlock(name string) *Block {
	if b, ok := lw.labelBlocks[name]; ok {
		return b
	}
	b := lw.newBlock()
	lw.labelBlocks[name] = b
	return b
}

func (lw *lowerer) lowerDoWhile(x *cir.DoWhileStmt) error {
	body := lw.newBlock()
	condBlk := lw.newBlock()
	exit := lw.newBlock()
	lw.edge(lw.cur, body, nil, false)

	lw.breakTargets = append(lw.breakTargets, exit)
	lw.continueTargets = append(lw.continueTargets, condBlk)
	lw.cur = body
	if err := lw.lowerStmt(x.Body); err != nil {
		return err
	}
	if lw.cur != nil {
		lw.edge(lw.cur, condBlk, nil, false)
	}
	lw.breakTargets = lw.breakTargets[:len(lw.breakTargets)-1]
	lw.continueTargets = lw.continueTargets[:len(lw.continueTargets)-1]

	lw.cur = condBlk
	line := exprLine(x.Cond, stmtLine(x))
	cond := lw.hoistCalls(x.Cond, line)
	lw.emit(&Stmt{Kind: StBranch, Line: line, X: cond})
	lw.edge(condBlk, body, cond, false) // back edge when the condition holds
	lw.edge(condBlk, exit, cond, true)
	lw.cur = exit
	return nil
}

func (lw *lowerer) lowerSwitch(x *cir.SwitchStmt) error {
	line := exprLine(x.Tag, stmtLine(x))
	tag := lw.hoistCalls(x.Tag, line)
	lw.emit(&Stmt{Kind: StSwitch, Line: line, X: tag})
	tagBlk := lw.cur

	exit := lw.newBlock()
	lw.breakTargets = append(lw.breakTargets, exit)

	// Build the edge condition for each clause: OR of tag==v; default gets
	// the conjunction of negations.
	var allEqs []cir.Expr
	hasDefault := false
	for _, cc := range x.Cases {
		if cc.Values == nil {
			hasDefault = true
			continue
		}
		for _, v := range cc.Values {
			allEqs = append(allEqs, &cir.BinaryExpr{Op: cir.TokEq, X: tag, Y: v})
		}
	}
	for _, cc := range x.Cases {
		body := lw.newBlock()
		var cond cir.Expr
		if cc.Values != nil {
			for _, v := range cc.Values {
				eq := &cir.BinaryExpr{Op: cir.TokEq, X: tag, Y: v}
				if cond == nil {
					cond = eq
				} else {
					cond = &cir.BinaryExpr{Op: cir.TokOrOr, X: cond, Y: eq}
				}
			}
			lw.edge(tagBlk, body, cond, false)
		} else {
			// default: none of the case values matched.
			for _, eq := range allEqs {
				ne := &cir.UnaryExpr{Op: cir.TokNot, X: eq}
				if cond == nil {
					cond = cir.Expr(ne)
				} else {
					cond = &cir.BinaryExpr{Op: cir.TokAndAnd, X: cond, Y: ne}
				}
			}
			lw.edge(tagBlk, body, cond, false)
		}
		lw.cur = body
		for _, st := range cc.Body {
			if err := lw.lowerStmt(st); err != nil {
				return err
			}
		}
		if lw.cur != nil {
			lw.edge(lw.cur, exit, nil, false)
		}
	}
	if !hasDefault {
		// Implicit default: fall through to exit.
		var cond cir.Expr
		for _, eq := range allEqs {
			ne := &cir.UnaryExpr{Op: cir.TokNot, X: eq}
			if cond == nil {
				cond = cir.Expr(ne)
			} else {
				cond = &cir.BinaryExpr{Op: cir.TokAndAnd, X: cond, Y: ne}
			}
		}
		lw.edge(tagBlk, exit, cond, false)
	}
	lw.breakTargets = lw.breakTargets[:len(lw.breakTargets)-1]
	lw.cur = exit
	return nil
}

// computeDefUse fills Defs/Uses for every statement of the function.
func (lw *lowerer) computeDefUse() {
	fn := lw.fn
	for _, b := range fn.Blocks {
		for _, s := range b.Stmts {
			switch s.Kind {
			case StAssign:
				if loc, reads, ok := fn.LvalLoc(s.LHS); ok {
					s.Defs = []Loc{loc}
					s.Uses = append(s.Uses, reads...)
				}
				s.Uses = append(s.Uses, fn.UsesOf(s.RHS)...)
			case StCall:
				if s.LHS != nil {
					if loc, reads, ok := fn.LvalLoc(s.LHS); ok {
						s.Defs = []Loc{loc}
						s.Uses = append(s.Uses, reads...)
					}
				}
				if s.CalleeExpr != nil {
					s.Uses = append(s.Uses, fn.UsesOf(s.CalleeExpr)...)
				}
				for _, a := range s.Args {
					s.Uses = append(s.Uses, fn.UsesOf(a)...)
				}
			case StReturn, StBranch, StSwitch:
				s.Uses = append(s.Uses, fn.UsesOf(s.X)...)
			}
			s.Uses = dedupLocs(s.Uses)
			s.Defs = dedupLocs(s.Defs)
		}
	}
	// Renumber blocks densely in fn.Blocks order, so Exit has the final ID:
	// control-flow analyses index per-block facts by Block.ID.
	for i, b := range fn.Blocks {
		b.ID = i
	}
}
