package detect

import (
	"fmt"
	"sort"
	"strings"

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
// per region from region() (under regionMu); the serialization reads only
// immutable IR.
func (sh *Shared) shapeOf(rc *regionCtx) *shapeInfo {
	canon, size := canonRegion(sh.G.Prog, rc)
	sh.shapeMu.Lock()
	defer sh.shapeMu.Unlock()
	if si, ok := sh.shapes[canon]; ok {
		return si
	}
	si := &shapeInfo{size: size}
	sh.shapes[canon] = si
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
	for i, s := range src.Fn.Stmts() {
		sh.stmtPos[s] = i
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
	fnMap := make(map[*ir.Func]*ir.Func, len(from.funcs))
	for i, f := range from.funcs {
		fnMap[f] = rc.funcs[i]
	}
	stmtCache := make(map[*ir.Func][]*ir.Stmt, len(rc.funcs))
	stmts := func(fn *ir.Func) []*ir.Stmt {
		if s, ok := stmtCache[fn]; ok {
			return s
		}
		s := fn.Stmts()
		stmtCache[fn] = s
		return s
	}
	mapStmt := func(s *ir.Stmt) *ir.Stmt {
		dst, ok := fnMap[s.Fn]
		if !ok {
			return s // outside the mapped closure: program-level identity
		}
		i, ok := sh.stmtPosition(s)
		if !ok {
			return s
		}
		return stmts(dst)[i]
	}
	mapVar := func(v *ir.Var) *ir.Var {
		if v == nil || v.Fn == nil {
			return v // globals keep identity
		}
		dst, ok := fnMap[v.Fn]
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
			if dst, ok := fnMap[ep.Fn]; ok {
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

// canonRegion serializes the lowered IR of a region closure into its
// canonical shape string; returns the total statement count alongside.
func canonRegion(prog *ir.Program, rc *regionCtx) (string, int) {
	c := &canonWriter{
		prog:  prog,
		fnIdx: rc.idx,
	}
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
	return c.sb.String(), size
}

// layoutRanks orders the closure's functions by their first statement ID
// (the program-global lowering order) and returns each function's rank.
func layoutRanks(funcs []*ir.Func) []int {
	type at struct{ pos, id int }
	order := make([]at, len(funcs))
	for i, f := range funcs {
		id := int(^uint(0) >> 1)
		if ss := f.Stmts(); len(ss) > 0 {
			id = ss[0].ID
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

// canonWriter carries the serialization state of one region shape.
type canonWriter struct {
	sb    strings.Builder
	prog  *ir.Program
	fnIdx map[*ir.Func]int
	// vi numbers the current function's params and locals positionally.
	vi map[*ir.Var]int
	fn *ir.Func
}

func (c *canonWriter) writeFunc(f *ir.Func, idx, rank int) int {
	c.fn = f
	c.vi = make(map[*ir.Var]int, len(f.Params)+len(f.Locals))
	n := 0
	for _, v := range f.Params {
		c.vi[v] = n
		n++
	}
	for _, v := range f.Locals {
		c.vi[v] = n
		n++
	}
	impl := 0
	if len(c.prog.InterfacesOf(f)) > 0 {
		impl = 1
	}
	ret := "?"
	if f.Decl != nil && f.Decl.Ret != nil {
		ret = f.Decl.Ret.String()
	}
	fmt.Fprintf(&c.sb, "F%d rank%d impl%d ret=%s\n", idx, rank, impl, ret)
	for _, v := range f.Params {
		fmt.Fprintf(&c.sb, " p%d t=%s i%v\n", v.ParamIndex, typeStr(v.Type), v.Initialized)
	}
	for _, v := range f.Locals {
		fmt.Fprintf(&c.sb, " l k%d t=%s i%v\n", v.Kind, typeStr(v.Type), v.Initialized)
	}
	blkIdx := make(map[*ir.Block]int, len(f.Blocks))
	for i, b := range f.Blocks {
		blkIdx[b] = i
	}
	stmts := 0
	for i, b := range f.Blocks {
		fmt.Fprintf(&c.sb, " b%d:", i)
		for _, s := range b.Succs {
			fmt.Fprintf(&c.sb, "%d,", blkIdx[s])
		}
		c.sb.WriteByte('\n')
		for _, s := range b.Stmts {
			c.writeStmt(s)
			stmts++
		}
	}
	return stmts
}

func (c *canonWriter) writeStmt(s *ir.Stmt) {
	fmt.Fprintf(&c.sb, "  s%d ", s.Kind)
	c.expr(s.LHS)
	c.sb.WriteByte('=')
	c.expr(s.RHS)
	c.sb.WriteByte(';')
	c.expr(s.X)
	if s.Kind == ir.StCall {
		c.sb.WriteString(";c:")
		c.callee(s.Callee)
		c.expr(s.CalleeExpr)
		for _, a := range s.Args {
			c.sb.WriteByte(',')
			c.expr(a)
		}
	}
	c.sb.WriteString(";D")
	for _, l := range s.Defs {
		c.loc(l)
	}
	c.sb.WriteString(";U")
	for _, l := range s.Uses {
		c.loc(l)
	}
	c.sb.WriteByte('\n')
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
			fmt.Fprintf(&c.sb, "F%d", i)
			return
		}
	}
	c.sb.WriteString(name)
}

func (c *canonWriter) loc(l ir.Loc) {
	if l.Base == nil {
		c.sb.WriteString("[]")
		return
	}
	c.sb.WriteByte('[')
	c.varRef(l.Base)
	for _, st := range l.Path {
		c.sb.WriteString(st.String())
	}
	c.sb.WriteByte(']')
}

func (c *canonWriter) varRef(v *ir.Var) {
	if v.Fn == nil {
		// Program-level identity: global names stay verbatim.
		c.sb.WriteString("g:")
		c.sb.WriteString(v.Name)
		return
	}
	if i, ok := c.vi[v]; ok {
		fmt.Fprintf(&c.sb, "v%d", i)
		return
	}
	// A variable of another function (should not occur in per-statement
	// locs); fall back to the program-global ID so the shape stays
	// deterministic but never spuriously unifies.
	fmt.Fprintf(&c.sb, "V#%d", v.ID)
}

func typeStr(t *cir.Type) string {
	if t == nil {
		return "?"
	}
	return t.String()
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
		c.sb.WriteByte('_')
	case *cir.Ident:
		if v := c.fn.VarByName(x.Name); v != nil {
			c.varRef(v)
			return
		}
		if fn, ok := c.prog.Funcs[x.Name]; ok {
			if i, in := c.fnIdx[fn]; in {
				fmt.Fprintf(&c.sb, "F%d", i)
				return
			}
		}
		c.sb.WriteString("x:")
		c.sb.WriteString(x.Name)
	case *cir.IntLit:
		fmt.Fprintf(&c.sb, "i%d:%s", x.Val, x.Text)
	case *cir.StrLit:
		fmt.Fprintf(&c.sb, "%q", x.Val)
	case *cir.UnaryExpr:
		fmt.Fprintf(&c.sb, "u%d(", x.Op)
		c.expr(x.X)
		c.sb.WriteByte(')')
	case *cir.BinaryExpr:
		fmt.Fprintf(&c.sb, "b%d(", x.Op)
		c.expr(x.X)
		c.sb.WriteByte(',')
		c.expr(x.Y)
		c.sb.WriteByte(')')
	case *cir.CondExpr:
		c.sb.WriteString("?(")
		c.expr(x.Cond)
		c.sb.WriteByte(',')
		c.expr(x.Then)
		c.sb.WriteByte(',')
		c.expr(x.Else)
		c.sb.WriteByte(')')
	case *cir.CallExpr:
		c.sb.WriteString("call(")
		c.expr(x.Fun)
		for _, a := range x.Args {
			c.sb.WriteByte(',')
			c.expr(a)
		}
		c.sb.WriteByte(')')
	case *cir.IndexExpr:
		c.sb.WriteString("ix(")
		c.expr(x.X)
		c.sb.WriteByte(',')
		c.expr(x.Index)
		c.sb.WriteByte(')')
	case *cir.FieldExpr:
		arrow := "."
		if x.Arrow {
			arrow = "->"
		}
		c.sb.WriteString("f(")
		c.expr(x.X)
		c.sb.WriteString(arrow)
		c.sb.WriteString(x.Name)
		c.sb.WriteByte(')')
	case *cir.CastExpr:
		fmt.Fprintf(&c.sb, "cast[%s](", typeStr(x.Type))
		c.expr(x.X)
		c.sb.WriteByte(')')
	case *cir.SizeofExpr:
		fmt.Fprintf(&c.sb, "sz%d", x.Size)
	case *cir.StructInitExpr:
		c.sb.WriteString("init{")
		for _, fl := range x.Fields {
			c.sb.WriteString(fl.Name)
			c.sb.WriteByte('=')
			c.expr(fl.Value)
			c.sb.WriteByte(';')
		}
		c.sb.WriteByte('}')
	default:
		c.sb.WriteString("<?>")
	}
}
