package detect

import (
	"sort"
	"strconv"

	"seal/internal/cir"
	"seal/internal/ir"
	"seal/internal/vfp"
)

// Canonical region shapes: the cross-region dedup lever for the shared
// path cache. A detection region's value-flow paths are a deterministic
// function of the region's lowered IR (statements, access paths, CFG
// succession, callee linking, interface markers) — everything EXCEPT
// identifier spellings: function names, local variable names, file names,
// and line numbers. Sibling driver implementations of one subsystem are
// exactly such renamings of each other, so their regions enumerate
// isomorphic path sets one statement apart.
//
// canonRegion serializes a region closure into a canonical string with
// in-region function names replaced by closure indices and local/param
// variables by positional indices; everything with program-level identity
// (global names, external API names, out-of-region callees, literal
// values and spellings, types, field offsets) stays verbatim. Two regions
// with EQUAL canonical strings — full string comparison, no hash trust —
// are isomorphic by construction, and a path set computed in one
// translates to the other by positional statement mapping. The exactness
// matters: a serialization gap can only make two regions spuriously
// DIFFER (missed reuse), never spuriously match, as long as every input
// the traversal reads is serialized; TestCanonReuseMatchesRecompute pins
// that contract against recomputation over the whole synthetic corpus.

// shapeInfo is one interned canonical shape; pointer identity is shape
// identity (Shared.shapeOf interns by full canonical string).
type shapeInfo struct {
	// size is the total statement count, kept for sanity checks.
	size int
}

// canonPathKey identifies one path computation up to region isomorphism:
// the shape and the source's position inside it.
type canonPathKey struct {
	shape *shapeInfo
	fn    int // index of the source's function in the region closure
	stmt  int // index of the source statement within its function
}

// canonEntry is a completed, non-volatile path set remembered under its
// canonical key, together with the region that computed it (the
// translation origin).
type canonEntry struct {
	rc    *regionCtx
	paths []*vfp.Path
}

// shapeOf interns the canonical shape of a region closure. Called once
// per region from region(), under regionMu, which also guards the reused
// writer; the serialization reads only immutable IR. The map lookup with
// string(bytes) does not copy, so only a new shape allocates its key.
func (sh *Shared) shapeOf(rc *regionCtx) *shapeInfo {
	canon, size := sh.canon.region(sh.G.Prog, rc)
	sh.shapeMu.Lock()
	defer sh.shapeMu.Unlock()
	if si, ok := sh.shapes[string(canon)]; ok {
		return si
	}
	si := &shapeInfo{size: size}
	sh.shapes[string(canon)] = si
	return si
}

// canonKeyFor locates src inside rc's shape; ok=false when src is not a
// statement of the closure (defensive — sources are instantiated from
// region functions).
func (sh *Shared) canonKeyFor(src *ir.Stmt, rc *regionCtx) (canonPathKey, bool) {
	fnI, ok := rc.idx[src.Fn]
	if !ok {
		return canonPathKey{}, false
	}
	stmtI, ok := sh.stmtPosition(src)
	if !ok {
		return canonPathKey{}, false
	}
	return canonPathKey{shape: rc.shape, fn: fnI, stmt: stmtI}, true
}

// canonTranslate serves a path set for (src, rc) from an isomorphic
// sibling region, translating statement-by-statement. Returns ok=false on
// a canonical miss (or when the entry's origin is rc itself, which the
// exact key already covers).
func (sh *Shared) canonTranslate(src *ir.Stmt, rc *regionCtx) ([]*vfp.Path, bool) {
	key, ok := sh.canonKeyFor(src, rc)
	if !ok {
		return nil, false
	}
	sh.canonMu.Lock()
	ce := sh.canonPaths[key]
	sh.canonMu.Unlock()
	if ce == nil || ce.rc == rc {
		return nil, false
	}
	return sh.translatePaths(ce, rc), true
}

// canonPublish remembers a completed, non-volatile path set under its
// canonical key (first computation wins; later publishes are no-ops so
// the translation origin stays stable).
func (sh *Shared) canonPublish(src *ir.Stmt, rc *regionCtx, paths []*vfp.Path) {
	key, ok := sh.canonKeyFor(src, rc)
	if !ok {
		return
	}
	sh.canonMu.Lock()
	if _, exists := sh.canonPaths[key]; !exists {
		sh.canonPaths[key] = &canonEntry{rc: rc, paths: paths}
	}
	sh.canonMu.Unlock()
}

// stmtPosition returns src's index within its function's statement list,
// caching per-function position maps on the substrate.
func (sh *Shared) stmtPosition(src *ir.Stmt) (int, bool) {
	sh.stmtMu.Lock()
	defer sh.stmtMu.Unlock()
	if i, ok := sh.stmtPos[src]; ok {
		return i, true
	}
	if sh.stmtIndexed[src.Fn] {
		return 0, false
	}
	sh.stmtIndexed[src.Fn] = true
	i := 0
	for _, b := range src.Fn.Blocks {
		for _, s := range b.Stmts {
			sh.stmtPos[s] = i
			i++
		}
	}
	i, ok := sh.stmtPos[src]
	return i, ok
}

// translatePaths maps a sibling region's path set into rc by positional
// statement and variable mapping. Equal canonical shapes guarantee equal
// function, statement, parameter, and local counts, so every positional
// lookup is in range by construction.
func (sh *Shared) translatePaths(ce *canonEntry, rc *regionCtx) []*vfp.Path {
	from := ce.rc
	// fnMap maps a function of the origin closure to its counterpart in
	// rc: both closures number their functions alike.
	fnMap := func(f *ir.Func) (*ir.Func, bool) {
		i, ok := from.idx[f]
		if !ok {
			return nil, false
		}
		return rc.funcs[i], true
	}
	mapStmt := func(s *ir.Stmt) *ir.Stmt {
		dst, ok := fnMap(s.Fn)
		if !ok {
			return s // outside the mapped closure: program-level identity
		}
		i, ok := sh.stmtPosition(s)
		if !ok {
			return s
		}
		return dst.StmtAt(i)
	}
	mapVar := func(v *ir.Var) *ir.Var {
		if v == nil || v.Fn == nil {
			return v // globals keep identity
		}
		dst, ok := fnMap(v.Fn)
		if !ok {
			return v
		}
		if v.Kind == ir.VarParam {
			return dst.Params[v.ParamIndex]
		}
		for i, l := range v.Fn.Locals {
			if l == v {
				return dst.Locals[i]
			}
		}
		return v
	}
	mapLoc := func(l ir.Loc) ir.Loc {
		if l.Base == nil {
			return l
		}
		return ir.Loc{Base: mapVar(l.Base), Path: l.Path}
	}
	mapEP := func(ep vfp.Endpoint) vfp.Endpoint {
		out := ep
		if ep.Stmt != nil {
			out.Stmt = mapStmt(ep.Stmt)
		}
		if ep.Fn != nil {
			if dst, ok := fnMap(ep.Fn); ok {
				out.Fn = dst
			}
		}
		out.Loc = mapLoc(ep.Loc)
		return out
	}
	out := make([]*vfp.Path, len(ce.paths))
	for i, p := range ce.paths {
		nodes := make([]*ir.Stmt, len(p.Nodes))
		for j, n := range p.Nodes {
			nodes[j] = mapStmt(n)
		}
		out[i] = &vfp.Path{
			Nodes:     nodes,
			Source:    mapEP(p.Source),
			Sink:      mapEP(p.Sink),
			Truncated: p.Truncated,
		}
	}
	return out
}

// canonWriter serializes region shapes into one reused buffer: a region's
// canonical shape is garbage once interned, so Shared keeps one writer
// (guarded by regionMu) and every region overwrites the last one's bytes.
type canonWriter struct {
	b     []byte
	prog  *ir.Program
	fnIdx map[*ir.Func]int
	// vi numbers the current function's params and locals positionally;
	// blk numbers its blocks. Both are cleared per function and reused.
	vi  map[*ir.Var]int
	blk map[*ir.Block]int
	fn  *ir.Func
}

// region serializes the lowered IR of a region closure into its canonical
// shape and returns the total statement count alongside. The bytes are
// valid until the next call.
func (c *canonWriter) region(prog *ir.Program, rc *regionCtx) ([]byte, int) {
	if c.vi == nil {
		c.vi = make(map[*ir.Var]int)
		c.blk = make(map[*ir.Block]int)
	}
	c.b = c.b[:0]
	c.prog = prog
	c.fnIdx = rc.idx
	// File-layout ranks: PDG edge lists sort by program-global statement
	// IDs, so the relative lowering order of the closure's functions is a
	// traversal input (it decides edge enumeration order across
	// functions). Serialize each function's rank so regions whose files
	// lay their functions out differently never unify.
	ranks := layoutRanks(rc.funcs)
	size := 0
	for i, f := range rc.funcs {
		size += c.writeFunc(f, i, ranks[i])
	}
	c.prog, c.fnIdx, c.fn = nil, nil, nil
	clear(c.vi)
	clear(c.blk)
	return c.b, size
}

// layoutRanks orders the closure's functions by their first statement ID
// (the program-global lowering order) and returns each function's rank.
func layoutRanks(funcs []*ir.Func) []int {
	type at struct{ pos, id int }
	order := make([]at, len(funcs))
	for i, f := range funcs {
		id := int(^uint(0) >> 1)
		if s := f.StmtAt(0); s != nil {
			id = s.ID
		}
		order[i] = at{pos: i, id: id}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].id < order[b].id })
	ranks := make([]int, len(funcs))
	for r, o := range order {
		ranks[o.pos] = r
	}
	return ranks
}

func (c *canonWriter) num(prefix string, n int64) {
	c.b = strconv.AppendInt(append(c.b, prefix...), n, 10)
}

func (c *canonWriter) str(s string) { c.b = append(c.b, s...) }

func (c *canonWriter) ch(x byte) { c.b = append(c.b, x) }

func (c *canonWriter) typ(t *cir.Type) {
	if t == nil {
		c.ch('?')
		return
	}
	c.b = t.AppendString(c.b)
}

func (c *canonWriter) writeFunc(f *ir.Func, idx, rank int) int {
	c.fn = f
	clear(c.vi)
	n := 0
	for _, v := range f.Params {
		c.vi[v] = n
		n++
	}
	for _, v := range f.Locals {
		c.vi[v] = n
		n++
	}
	impl := int64(0)
	if len(c.prog.InterfacesOf(f)) > 0 {
		impl = 1
	}
	c.num("F", int64(idx))
	c.num(" rank", int64(rank))
	c.num(" impl", impl)
	c.str(" ret=")
	if f.Decl != nil && f.Decl.Ret != nil {
		c.typ(f.Decl.Ret)
	} else {
		c.ch('?')
	}
	c.ch('\n')
	for _, v := range f.Params {
		c.num(" p", int64(v.ParamIndex))
		c.str(" t=")
		c.typ(v.Type)
		c.str(" i")
		c.b = strconv.AppendBool(c.b, v.Initialized)
		c.ch('\n')
	}
	for _, v := range f.Locals {
		c.num(" l k", int64(v.Kind))
		c.str(" t=")
		c.typ(v.Type)
		c.str(" i")
		c.b = strconv.AppendBool(c.b, v.Initialized)
		c.ch('\n')
	}
	clear(c.blk)
	for i, b := range f.Blocks {
		c.blk[b] = i
	}
	stmts := 0
	for i, b := range f.Blocks {
		c.num(" b", int64(i))
		c.ch(':')
		for _, s := range b.Succs {
			c.b = append(strconv.AppendInt(c.b, int64(c.blk[s]), 10), ',')
		}
		c.ch('\n')
		for _, s := range b.Stmts {
			c.writeStmt(s)
			stmts++
		}
	}
	return stmts
}

func (c *canonWriter) writeStmt(s *ir.Stmt) {
	c.num("  s", int64(s.Kind))
	c.ch(' ')
	c.expr(s.LHS)
	c.ch('=')
	c.expr(s.RHS)
	c.ch(';')
	c.expr(s.X)
	if s.Kind == ir.StCall {
		c.str(";c:")
		c.callee(s.Callee)
		c.expr(s.CalleeExpr)
		for _, a := range s.Args {
			c.ch(',')
			c.expr(a)
		}
	}
	c.str(";D")
	for _, l := range s.Defs {
		c.loc(l)
	}
	c.str(";U")
	for _, l := range s.Uses {
		c.loc(l)
	}
	c.ch('\n')
}

// callee canonicalizes a call target name: in-region functions by closure
// index, everything else (external APIs, out-of-region defined functions)
// verbatim.
func (c *canonWriter) callee(name string) {
	if name == "" {
		return
	}
	if fn, ok := c.prog.Funcs[name]; ok {
		if i, in := c.fnIdx[fn]; in {
			c.num("F", int64(i))
			return
		}
	}
	c.str(name)
}

// loc writes an access path; steps spell as ir.Step.String does.
func (c *canonWriter) loc(l ir.Loc) {
	if l.Base == nil {
		c.str("[]")
		return
	}
	c.ch('[')
	c.varRef(l.Base)
	for _, st := range l.Path {
		switch {
		case st.Kind == ir.StepDeref:
			c.ch('*')
		case st.Off == ir.AnyOff:
			c.str("[?]")
		default:
			c.num("+", int64(st.Off))
		}
	}
	c.ch(']')
}

func (c *canonWriter) varRef(v *ir.Var) {
	if v.Fn == nil {
		// Program-level identity: global names stay verbatim.
		c.str("g:")
		c.str(v.Name)
		return
	}
	if i, ok := c.vi[v]; ok {
		c.num("v", int64(i))
		return
	}
	// A variable of another function (should not occur in per-statement
	// locs); fall back to the program-global ID so the shape stays
	// deterministic but never spuriously unifies.
	c.num("V#", int64(v.ID))
}

// expr serializes an expression with identifiers canonicalized: variables
// by positional index, in-region function names by closure index, global
// and unresolved names (APIs, macro constants) verbatim. Literal
// spellings (IntLit.Text) are serialized too — path dedup keys include
// statement renderings, so regions differing only in a literal's spelling
// must not unify.
func (c *canonWriter) expr(e cir.Expr) {
	switch x := e.(type) {
	case nil:
		c.ch('_')
	case *cir.Ident:
		if v := c.fn.VarByName(x.Name); v != nil {
			c.varRef(v)
			return
		}
		if fn, ok := c.prog.Funcs[x.Name]; ok {
			if i, in := c.fnIdx[fn]; in {
				c.num("F", int64(i))
				return
			}
		}
		c.str("x:")
		c.str(x.Name)
	case *cir.IntLit:
		c.num("i", x.Val)
		c.ch(':')
		c.str(x.Text)
	case *cir.StrLit:
		c.b = strconv.AppendQuote(c.b, x.Val)
	case *cir.UnaryExpr:
		c.num("u", int64(x.Op))
		c.ch('(')
		c.expr(x.X)
		c.ch(')')
	case *cir.BinaryExpr:
		c.num("b", int64(x.Op))
		c.ch('(')
		c.expr(x.X)
		c.ch(',')
		c.expr(x.Y)
		c.ch(')')
	case *cir.CondExpr:
		c.str("?(")
		c.expr(x.Cond)
		c.ch(',')
		c.expr(x.Then)
		c.ch(',')
		c.expr(x.Else)
		c.ch(')')
	case *cir.CallExpr:
		c.str("call(")
		c.expr(x.Fun)
		for _, a := range x.Args {
			c.ch(',')
			c.expr(a)
		}
		c.ch(')')
	case *cir.IndexExpr:
		c.str("ix(")
		c.expr(x.X)
		c.ch(',')
		c.expr(x.Index)
		c.ch(')')
	case *cir.FieldExpr:
		arrow := "."
		if x.Arrow {
			arrow = "->"
		}
		c.str("f(")
		c.expr(x.X)
		c.str(arrow)
		c.str(x.Name)
		c.ch(')')
	case *cir.CastExpr:
		c.str("cast[")
		c.typ(x.Type)
		c.str("](")
		c.expr(x.X)
		c.ch(')')
	case *cir.SizeofExpr:
		c.num("sz", int64(x.Size))
	case *cir.StructInitExpr:
		c.str("init{")
		for _, fl := range x.Fields {
			c.str(fl.Name)
			c.ch('=')
			c.expr(fl.Value)
			c.ch(';')
		}
		c.ch('}')
	default:
		c.str("<?>")
	}
}
