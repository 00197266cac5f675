// Package ir lowers parsed kernel-C translation units into a per-function
// control-flow-graph IR whose nodes carry DEF/USE access-path information.
// The IR is the substrate on which the PDG (paper Def. 6.1) is built: each
// IR statement becomes a PDG node ("each node is a statement or,
// equivalently, the variable defined by the statement").
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"seal/internal/cir"
)

// VarKind classifies IR variables.
type VarKind int

// Variable kinds.
const (
	VarLocal VarKind = iota
	VarParam
	VarGlobal
	VarTemp
)

// String implements fmt.Stringer.
func (k VarKind) String() string {
	switch k {
	case VarLocal:
		return "local"
	case VarParam:
		return "param"
	case VarGlobal:
		return "global"
	case VarTemp:
		return "temp"
	}
	return "?"
}

// Var is an IR variable: a named local, parameter, global, or
// lowering-introduced temporary.
type Var struct {
	ID         int
	Name       string
	Type       *cir.Type
	Kind       VarKind
	ParamIndex int   // for VarParam
	Fn         *Func // nil for globals
	DeclLine   int
	// Initialized reports whether a local declaration carried an
	// initializer (used by uninitialized-value reasoning).
	Initialized bool
}

// String implements fmt.Stringer.
func (v *Var) String() string {
	if v == nil {
		return "<nilvar>"
	}
	return v.Name
}

// StmtKind enumerates IR statement kinds.
type StmtKind int

// Statement kinds.
const (
	// StAssign: LHS = RHS (call-free expressions on both sides).
	StAssign StmtKind = iota
	// StCall: [LHS =] callee(args); Callee set for direct calls,
	// CalleeExpr for indirect calls through function pointers.
	StCall
	// StReturn: return [X].
	StReturn
	// StBranch: block terminator with cond X; Succs[0] is the true edge,
	// Succs[1] the false edge.
	StBranch
	// StSwitch: block terminator over Tag X; edge conditions are attached
	// to the block.
	StSwitch
	// StNop: entry/exit markers.
	StNop
)

// String implements fmt.Stringer.
func (k StmtKind) String() string {
	switch k {
	case StAssign:
		return "assign"
	case StCall:
		return "call"
	case StReturn:
		return "return"
	case StBranch:
		return "branch"
	case StSwitch:
		return "switch"
	case StNop:
		return "nop"
	}
	return "?"
}

// Stmt is an IR statement; the unit of PDG nodes.
type Stmt struct {
	// ID is program-global and dense: Program.AllStmts()[ID] is the
	// statement.
	ID   int
	Kind StmtKind
	Fn   *Func
	Blk  *Block
	Line int

	LHS cir.Expr // assignment / call-result target (lvalue), may be nil
	RHS cir.Expr // assignment source

	Callee     string     // direct callee name ("" if indirect)
	CalleeExpr cir.Expr   // indirect callee expression
	Args       []cir.Expr // call arguments

	X cir.Expr // return value / branch condition / switch tag

	// Defs and Uses are the access paths written and read by this
	// statement (computed during lowering).
	Defs []Loc
	Uses []Loc

	// normMemo caches the temp-erased spelling (NormString). Every path
	// crossing the statement shares one rendering instead of re-deriving
	// it; atomic so concurrent detectors can fill it without locking.
	normMemo atomic.Pointer[string]
}

// IsCallTo reports whether the statement is a direct call to name.
func (s *Stmt) IsCallTo(name string) bool {
	return s.Kind == StCall && s.Callee == name
}

// String renders the statement for diagnostics and bug reports.
func (s *Stmt) String() string {
	switch s.Kind {
	case StAssign:
		return fmt.Sprintf("%s = %s", cir.ExprString(s.LHS), cir.ExprString(s.RHS))
	case StCall:
		var sb strings.Builder
		if s.LHS != nil {
			sb.WriteString(cir.ExprString(s.LHS))
			sb.WriteString(" = ")
		}
		if s.Callee != "" {
			sb.WriteString(s.Callee)
		} else {
			sb.WriteString(cir.ExprString(s.CalleeExpr))
		}
		sb.WriteByte('(')
		for i, a := range s.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(cir.ExprString(a))
		}
		sb.WriteByte(')')
		return sb.String()
	case StReturn:
		if s.X != nil {
			return "return " + cir.ExprString(s.X)
		}
		return "return"
	case StBranch:
		return "branch " + cir.ExprString(s.X)
	case StSwitch:
		return "switch " + cir.ExprString(s.X)
	case StNop:
		if s.LHS != nil {
			return "param " + cir.ExprString(s.LHS)
		}
		return "nop"
	}
	return "?"
}

// NormString renders the statement with lowering temporaries erased:
// `__t3 = f(x)` and a bare `f(x)` expression statement spell the same, and
// `return __t3` becomes `return __t`. The result is memoized per statement
// (safe under concurrent callers — the computation is deterministic, so
// racing writers store equal strings).
func (s *Stmt) NormString() string {
	if memo := s.normMemo.Load(); memo != nil {
		return *memo
	}
	str := s.String()
	if s.Kind == StCall && s.LHS != nil {
		if id, ok := s.LHS.(*cir.Ident); ok && strings.HasPrefix(id.Name, "__t") {
			if i := strings.Index(str, " = "); i >= 0 {
				str = str[i+3:]
			}
		}
	}
	str = eraseTemps(str)
	s.normMemo.Store(&str)
	return str
}

// eraseTemps rewrites every "__t<digits>" token to "__t".
func eraseTemps(s string) string {
	if !strings.Contains(s, "__t") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if strings.HasPrefix(s[i:], "__t") {
			sb.WriteString("__t")
			i += 3
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				i++
			}
			continue
		}
		sb.WriteByte(s[i])
		i++
	}
	return sb.String()
}

// IsParamDef reports whether the statement is an entry parameter-definition
// node (the PDG source for interface arguments).
func (s *Stmt) IsParamDef() bool { return s.Kind == StNop && s.LHS != nil }

// ParamVar returns the parameter variable a parameter-definition node
// defines, or nil.
func (s *Stmt) ParamVar() *Var {
	if !s.IsParamDef() || len(s.Defs) == 0 {
		return nil
	}
	return s.Defs[0].Base
}

// Block is a basic block.
type Block struct {
	// ID is the block's index in Fn.Blocks (the exit block is last).
	ID    int
	Fn    *Func
	Stmts []*Stmt
	Succs []*Block
	Preds []*Block
	// EdgeConds[i] is the condition (an AST expression over pre-branch
	// state) under which the edge to Succs[i] is taken; nil for
	// unconditional edges. For StBranch blocks EdgeConds[1] is the negation
	// of the branch condition, represented with Negated[i]=true.
	EdgeConds []cir.Expr
	Negated   []bool
}

// Terminator returns the block's final statement if it is a branch/switch.
func (b *Block) Terminator() *Stmt {
	if len(b.Stmts) == 0 {
		return nil
	}
	last := b.Stmts[len(b.Stmts)-1]
	if last.Kind == StBranch || last.Kind == StSwitch {
		return last
	}
	return nil
}

// Func is a lowered function.
type Func struct {
	Name   string
	Decl   *cir.FuncDecl
	File   string
	Params []*Var
	Locals []*Var // includes temps
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	Prog   *Program

	vars map[string]*Var
}

// VarByName resolves a name inside the function scope, falling back to
// globals.
func (f *Func) VarByName(name string) *Var {
	if v, ok := f.vars[name]; ok {
		return v
	}
	if f.Prog != nil {
		if g, ok := f.Prog.GlobalVars[name]; ok {
			return g
		}
	}
	return nil
}

// Stmts returns all statements in block order, as a new slice. Hot paths
// walk f.Blocks instead, or use NumStmts and StmtAt, which copy nothing.
func (f *Func) Stmts() []*Stmt {
	var out []*Stmt
	for _, b := range f.Blocks {
		out = append(out, b.Stmts...)
	}
	return out
}

// NumStmts returns len(f.Stmts()).
func (f *Func) NumStmts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Stmts)
	}
	return n
}

// StmtAt returns f.Stmts()[i], or nil when i is out of range.
func (f *Func) StmtAt(i int) *Stmt {
	if i < 0 {
		return nil
	}
	for _, b := range f.Blocks {
		if i < len(b.Stmts) {
			return b.Stmts[i]
		}
		i -= len(b.Stmts)
	}
	return nil
}

// ReturnStmts returns all return statements.
func (f *Func) ReturnStmts() []*Stmt {
	var out []*Stmt
	for _, b := range f.Blocks {
		for _, s := range b.Stmts {
			if s.Kind == StReturn {
				out = append(out, s)
			}
		}
	}
	return out
}

// OpsAssign records an ops-table entry binding a function-pointer interface
// field to an implementing function: the key raw material for interface
// discovery and indirect-call resolution.
type OpsAssign struct {
	StructName string // e.g. "vb2_ops"
	FieldName  string // e.g. "buf_prepare"
	FuncName   string // e.g. "buffer_prepare"
	OpsVar     string // e.g. "cx23885_qops"
	File       string
	Line       int
}

// InterfaceName returns the canonical interface identifier
// "struct.field" (e.g. "vb2_ops.buf_prepare").
func (o OpsAssign) InterfaceName() string { return o.StructName + "." + o.FieldName }

// Program is a whole-corpus IR: the linked set of translation units.
type Program struct {
	Files      []*cir.File
	Funcs      map[string]*Func
	FuncList   []*Func // deterministic order
	Protos     map[string]*cir.FuncDecl
	GlobalVars map[string]*Var
	Globals    []*cir.GlobalDecl
	Structs    map[string]*cir.StructDef
	OpsAssigns []OpsAssign

	nextVarID  int
	nextStmtID int
	allStmts   []*Stmt

	// The interface index, built once by NewProgram from OpsAssigns.
	impls  map[ifaceKey][]*Func
	ifaces map[string][]string // function name -> interface names
}

// ifaceKey names one function-pointer interface field.
type ifaceKey struct{ structName, fieldName string }

// NewProgram lowers the given translation units into one linked program.
// The program is immutable once NewProgram returns.
func NewProgram(files ...*cir.File) (*Program, error) {
	p := &Program{
		Funcs:      make(map[string]*Func),
		Protos:     make(map[string]*cir.FuncDecl),
		GlobalVars: make(map[string]*Var),
		Structs:    make(map[string]*cir.StructDef),
	}
	for _, f := range files {
		if err := p.addFile(f); err != nil {
			return nil, err
		}
	}
	p.indexInterfaces()
	return p, nil
}

// addFile links one translation unit into the program.
func (p *Program) addFile(f *cir.File) error {
	p.Files = append(p.Files, f)
	for name, s := range f.Structs {
		if prev, ok := p.Structs[name]; ok && len(prev.Fields) > 0 && len(s.Fields) > 0 && prev != s {
			// Same-named struct across files: tolerate identical layouts.
			if len(prev.Fields) != len(s.Fields) {
				return fmt.Errorf("struct %s redefined with different layout in %s", name, f.Name)
			}
		}
		if _, ok := p.Structs[name]; !ok || len(s.Fields) > 0 {
			p.Structs[name] = s
		}
	}
	for _, g := range f.Globals {
		if _, ok := p.GlobalVars[g.Name]; !ok {
			v := &Var{ID: p.nextVarID, Name: g.Name, Type: g.Type, Kind: VarGlobal, DeclLine: g.Pos.Line, Initialized: g.Init != nil}
			p.nextVarID++
			p.GlobalVars[g.Name] = v
			p.Globals = append(p.Globals, g)
		}
		p.collectOps(f, g)
	}
	for _, pr := range f.Protos {
		if _, ok := p.Protos[pr.Name]; !ok {
			p.Protos[pr.Name] = pr
		}
	}
	for _, fd := range f.Funcs {
		if _, ok := p.Funcs[fd.Name]; ok {
			return fmt.Errorf("function %s redefined in %s", fd.Name, f.Name)
		}
		fn, err := p.lowerFunc(f, fd)
		if err != nil {
			return err
		}
		p.Funcs[fd.Name] = fn
		p.FuncList = append(p.FuncList, fn)
	}
	return nil
}

func (p *Program) collectOps(f *cir.File, g *cir.GlobalDecl) {
	init, ok := g.Init.(*cir.StructInitExpr)
	if !ok || g.Type == nil || !g.Type.IsStruct() {
		return
	}
	sd := g.Type.Struct
	for _, fld := range init.Fields {
		id, ok := fld.Value.(*cir.Ident)
		if !ok || fld.Name == "" {
			continue
		}
		fd := sd.Field(fld.Name)
		if fd == nil || !fd.Type.IsFuncPtr() {
			continue
		}
		p.OpsAssigns = append(p.OpsAssigns, OpsAssign{
			StructName: sd.Name,
			FieldName:  fld.Name,
			FuncName:   id.Name,
			OpsVar:     g.Name,
			File:       f.Name,
			Line:       g.Pos.Line,
		})
	}
}

// IsAPI reports whether name is an external API (declared but not defined).
func (p *Program) IsAPI(name string) bool {
	if _, defined := p.Funcs[name]; defined {
		return false
	}
	_, declared := p.Protos[name]
	return declared
}

// AllStmts returns every statement in the program, in deterministic order.
func (p *Program) AllStmts() []*Stmt { return p.allStmts }

// indexInterfaces builds the ImplsOf and InterfacesOf answers from
// OpsAssigns: implementations deduplicated and sorted by name, interface
// names deduplicated and sorted.
func (p *Program) indexInterfaces() {
	p.impls = make(map[ifaceKey][]*Func)
	p.ifaces = make(map[string][]string)
	for _, oa := range p.OpsAssigns {
		k := ifaceKey{oa.StructName, oa.FieldName}
		if fn, ok := p.Funcs[oa.FuncName]; ok && !slices.Contains(p.impls[k], fn) {
			p.impls[k] = append(p.impls[k], fn)
		}
		if name := oa.InterfaceName(); !slices.Contains(p.ifaces[oa.FuncName], name) {
			p.ifaces[oa.FuncName] = append(p.ifaces[oa.FuncName], name)
		}
	}
	for _, fns := range p.impls {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Name < fns[j].Name })
	}
	for _, names := range p.ifaces {
		sort.Strings(names)
	}
}

// ImplsOf returns, in deterministic order, the functions registered in ops
// tables as implementations of the interface "structName.fieldName". The
// slice is shared: callers must not modify it.
func (p *Program) ImplsOf(structName, fieldName string) []*Func {
	return p.impls[ifaceKey{structName, fieldName}]
}

// InterfacesOf returns the interface names (struct.field) that fn
// implements, sorted. The slice is shared: callers must not modify it.
func (p *Program) InterfacesOf(fn *Func) []string {
	return p.ifaces[fn.Name]
}

// CallersOfAPI returns every call statement to the named function/API.
func (p *Program) CallersOfAPI(name string) []*Stmt {
	var out []*Stmt
	for _, fn := range p.FuncList {
		for _, b := range fn.Blocks {
			for _, s := range b.Stmts {
				if s.IsCallTo(name) {
					out = append(out, s)
				}
			}
		}
	}
	return out
}
