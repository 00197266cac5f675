// Package spec implements the interface-specification formulation of paper
// Fig. 2: quantified constraints over path relations (reachability v ↪^c u
// and order precedence u1 ≺ u2) between abstract values V (interface
// arguments, API returns, globals, literals, and their fields) and uses U
// (API arguments, interface returns, global stores, deref/div/index sites).
// Specifications serialize to JSON so an inferred database is reusable
// across runs (paper §8.4: inference is a one-time effort).
package spec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"seal/internal/solver"
)

// ValueKind enumerates the V domain of Fig. 2.
type ValueKind int

// Value kinds.
const (
	// VIfaceArg is argⁱ: the k-th argument of a function-pointer interface.
	VIfaceArg ValueKind = iota
	// VAPIRet is ret^f: the return value of an API.
	VAPIRet
	// VGlobal is g: a global variable.
	VGlobal
	// VLiteral is l: a constant such as -ENOMEM.
	VLiteral
	// VUninit is the distinguished "uninitialized memory" value used for
	// uninitialized-value specifications.
	VUninit
)

var valueKindNames = map[ValueKind]string{
	VIfaceArg: "iface-arg", VAPIRet: "api-ret", VGlobal: "global",
	VLiteral: "literal", VUninit: "uninit",
}

// String implements fmt.Stringer.
func (k ValueKind) String() string { return valueKindNames[k] }

// Value is an element of domain V, optionally narrowed to a field path.
type Value struct {
	Kind     ValueKind `json:"kind"`
	Iface    string    `json:"iface,omitempty"`    // VIfaceArg: "vb2_ops.buf_prepare"
	ArgIndex int       `json:"argIndex,omitempty"` // VIfaceArg
	API      string    `json:"api,omitempty"`      // VAPIRet
	Global   string    `json:"global,omitempty"`   // VGlobal
	Lit      int64     `json:"lit,omitempty"`      // VLiteral
	// Field is the byte-offset path below the base value ("@8" = field at
	// offset 8; "@*" = any offset). Empty means the value itself.
	Field string `json:"field,omitempty"`
}

// Key returns the canonical symbol name for the value (used both as the
// spec identity and as the solver symbol in abstracted conditions).
func (v Value) Key() string { return string(v.appendKey(nil)) }

// appendKey appends Key() to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case VIfaceArg:
		b = appendNamed(appendInt(append(b, "arg"...), v.ArgIndex), v.Iface)
	case VAPIRet:
		b = appendNamed(append(b, "ret"...), v.API)
	case VGlobal:
		b = appendNamed(append(b, "global"...), v.Global)
	case VLiteral:
		b = append(strconv.AppendInt(append(b, "lit["...), v.Lit, 10), ']')
	case VUninit:
		b = append(b, "uninit"...)
	}
	return append(b, v.Field...)
}

// appendNamed appends "[name]" to b.
func appendNamed(b []byte, name string) []byte {
	return append(append(append(b, '['), name...), ']')
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// String implements fmt.Stringer.
func (v Value) String() string { return v.Key() }

// UseKind enumerates the U domain of Fig. 2.
type UseKind int

// Use kinds.
const (
	// UAPIArg is arg^f: passed to an API as argument k.
	UAPIArg UseKind = iota
	// UIfaceRet is retⁱ: returned by the interface implementation.
	UIfaceRet
	// UGlobalStore assigns to a global.
	UGlobalStore
	// UDeref dereferences the value.
	UDeref
	// UIndex uses the value in array indexing / offset arithmetic.
	UIndex
	// UDiv divides by the value.
	UDiv
	// UParamStore stores the value through a pointer argument of the
	// interface (an output buffer).
	UParamStore
)

var useKindNames = map[UseKind]string{
	UAPIArg: "api-arg", UIfaceRet: "iface-ret", UGlobalStore: "global-store",
	UDeref: "deref", UIndex: "index", UDiv: "div", UParamStore: "param-store",
}

// String implements fmt.Stringer.
func (k UseKind) String() string { return useKindNames[k] }

// Use is an element of domain U.
type Use struct {
	Kind     UseKind `json:"kind"`
	API      string  `json:"api,omitempty"`      // UAPIArg
	ArgIndex int     `json:"argIndex,omitempty"` // UAPIArg / UParamStore
	Iface    string  `json:"iface,omitempty"`    // UIfaceRet / UParamStore
	Global   string  `json:"global,omitempty"`   // UGlobalStore
}

// Key returns the canonical identity of the use.
func (u Use) Key() string { return string(u.appendKey(nil)) }

// appendKey appends Key() to b.
func (u Use) appendKey(b []byte) []byte {
	switch u.Kind {
	case UAPIArg:
		return appendNamed(appendInt(append(b, "arg"...), u.ArgIndex), u.API)
	case UIfaceRet:
		return appendNamed(append(b, "ret"...), u.Iface)
	case UGlobalStore:
		return appendNamed(append(b, "store"...), u.Global)
	case UDeref:
		return append(b, "deref"...)
	case UIndex:
		return append(b, "index"...)
	case UDiv:
		return append(b, "div"...)
	case UParamStore:
		return appendNamed(appendInt(append(b, "pstore"...), u.ArgIndex), u.Iface)
	}
	return append(b, '?')
}

// String implements fmt.Stringer.
func (u Use) String() string { return u.Key() }

// RelKind enumerates path-relation constructors R of Fig. 2.
type RelKind int

// Relation kinds.
const (
	// RelReach is the reachability relation v ↪^c u.
	RelReach RelKind = iota
	// RelOrder is the combined form ¬(v↪u1 ∧ v↪u2 ∧ u2 ≺ u1) used by
	// order specifications (paper Example 4.3).
	RelOrder
)

// Relation is a path relation instance.
type Relation struct {
	Kind RelKind `json:"kind"`
	V    Value   `json:"v"`
	U    Use     `json:"u"`            // RelReach
	U1   Use     `json:"u1,omitempty"` // RelOrder: the later use (forbidden after U2)
	U2   Use     `json:"u2,omitempty"` // RelOrder: the earlier use
	// Cond is the abstracted path condition c over canonical value symbols
	// (serialized via CondJSON).
	Cond     solver.Formula `json:"-"`
	CondJSON *CondNode      `json:"cond,omitempty"`
}

// String renders the relation in the paper's notation.
func (r Relation) String() string { return string(r.appendString(nil)) }

// appendString appends String() to b.
func (r Relation) appendString(b []byte) []byte {
	switch r.Kind {
	case RelReach:
		b = r.U.appendKey(append(r.V.appendKey(b), " ↪ "...))
		const under = " under ("
		n := len(b)
		b = solver.AppendString(append(b, under...), r.Cond)
		if string(b[n+len(under):]) == "true" {
			return b[:n]
		}
		return append(b, ')')
	case RelOrder:
		b = r.U1.appendKey(append(r.V.appendKey(append(b, '(')), " ↪ "...))
		b = r.U2.appendKey(append(r.V.appendKey(append(b, ") ∧ ("...)), " ↪ "...))
		b = r.U2.appendKey(append(b, ") ∧ ("...))
		return append(r.U1.appendKey(append(b, " ≺ "...)), ')')
	}
	return append(b, '?')
}

// Constraint is a quantified relation: Forbidden constraints (∄) are
// violated when a matching realization exists; Required constraints (∀/∃
// removed-negation relations) are violated when none exists.
type Constraint struct {
	Forbidden bool     `json:"forbidden"`
	Rel       Relation `json:"rel"`
}

// String implements fmt.Stringer.
func (c Constraint) String() string { return string(c.appendString(nil)) }

// appendString appends String() to b.
func (c Constraint) appendString(b []byte) []byte {
	if c.Forbidden {
		return c.Rel.appendString(append(b, "∄: "...))
	}
	return c.Rel.appendString(append(b, "∀: "...))
}

// Origin classifies which path-change category produced a specification
// (paper §8.2 reports relation counts per origin).
type Origin string

// Origins.
const (
	OriginRemoved   Origin = "P-"
	OriginAdded     Origin = "P+"
	OriginCondition Origin = "PΨ"
	OriginOrder     Origin = "PΩ"
)

// Spec is one interface specification.
type Spec struct {
	ID string `json:"id"`
	// Iface is the function-pointer interface the spec is scoped to
	// ("vb2_ops.buf_prepare"); empty for API-scoped specs that apply at
	// every usage of API (paper §5 Remark).
	Iface string `json:"iface,omitempty"`
	// API is the primary API involved (detection region key for
	// API-scoped specs; context for interface-scoped ones).
	API         string     `json:"api,omitempty"`
	Constraint  Constraint `json:"constraint"`
	Origin      Origin     `json:"origin"`
	OriginPatch string     `json:"originPatch,omitempty"`
}

// Scope returns the detection-region key.
func (s *Spec) Scope() string {
	if s.Iface != "" {
		return "iface:" + s.Iface
	}
	return "api:" + s.API
}

// Key is a dedup identity for the spec (scope + constraint rendering).
func (s *Spec) Key() string { return string(s.appendKey(nil)) }

// appendKey appends Key() to b.
func (s *Spec) appendKey(b []byte) []byte {
	if s.Iface != "" {
		b = append(append(b, "iface:"...), s.Iface...)
	} else {
		b = append(append(b, "api:"...), s.API...)
	}
	return s.Constraint.appendString(append(b, " | "...))
}

// KeyWith is Key for a caller that has already rendered the constraint.
func (s *Spec) KeyWith(constraint string) string {
	return s.Scope() + " | " + constraint
}

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("[%s] %s :: %s (from %s, %s)", s.ID, s.Scope(), s.Constraint, s.OriginPatch, s.Origin)
}

// DB is a serializable specification database.
type DB struct {
	Specs []*Spec `json:"specs"`
}

// Dedup removes duplicate specs by Key, keeping first occurrences. Keys
// are built in one reused buffer, and only a first occurrence's key is
// copied out of it.
func (db *DB) Dedup() {
	seen := make(map[string]bool, len(db.Specs))
	var out []*Spec
	var key []byte
	for _, s := range db.Specs {
		key = s.appendKey(key[:0])
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, s)
		}
	}
	db.Specs = out
}

// MarshalJSON serializes the DB with conditions in tree form. It works on
// shallow spec copies (Relation is a value field) so marshaling never
// writes to the shared spec objects — a DB is serialized for a shard job
// while concurrent detections read the very same specs.
func (db *DB) MarshalJSON() ([]byte, error) {
	type alias DB
	out := alias{Specs: make([]*Spec, len(db.Specs))}
	for i, s := range db.Specs {
		cp := *s
		cp.Constraint.Rel.CondJSON = CondToNode(s.Constraint.Rel.Cond)
		out.Specs[i] = &cp
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores conditions from tree form, then drops the trees:
// MarshalJSON renders Cond, so they are dead weight, and without them a
// decoded DB is the same value whether it came from JSON or from the
// binary form. A null entry in specs is an error naming its index. A
// caller holding the bytes calls it directly: json.Unmarshal(data, &db)
// would scan the whole input once to validate it before handing it here
// to be scanned again.
func (db *DB) UnmarshalJSON(data []byte) error {
	type fields DB // DB's JSON shape without DB's codec
	if err := json.Unmarshal(data, (*fields)(db)); err != nil {
		return err
	}
	for i, s := range db.Specs {
		if s == nil {
			return fmt.Errorf("spec entry %d is null", i)
		}
		r := &s.Constraint.Rel
		r.Cond, r.CondJSON = NodeToCond(r.CondJSON), nil
	}
	return nil
}

// CondNode is the JSON form of a solver formula.
type CondNode struct {
	Op   string      `json:"op"` // true,false,atom,not,and,or
	Cmp  string      `json:"cmp,omitempty"`
	A    *TermNode   `json:"a,omitempty"`
	B    *TermNode   `json:"b,omitempty"`
	Kids []*CondNode `json:"kids,omitempty"`
}

// TermNode is the JSON form of a solver term.
type TermNode struct {
	Sym string    `json:"sym,omitempty"`
	C   *int64    `json:"c,omitempty"`
	Op  string    `json:"op,omitempty"` // add,sub,mul
	A   *TermNode `json:"a,omitempty"`
	B   *TermNode `json:"b,omitempty"`
}

// CondToNode converts a formula to its JSON tree.
func CondToNode(f solver.Formula) *CondNode {
	switch x := f.(type) {
	case nil, solver.TrueF:
		return &CondNode{Op: "true"}
	case solver.FalseF:
		return &CondNode{Op: "false"}
	case solver.Atom:
		return &CondNode{Op: "atom", Cmp: x.Op.String(), A: termToNode(x.A), B: termToNode(x.B)}
	case solver.Not:
		return &CondNode{Op: "not", Kids: []*CondNode{CondToNode(x.F)}}
	case solver.And:
		n := &CondNode{Op: "and"}
		for _, k := range x.Fs {
			n.Kids = append(n.Kids, CondToNode(k))
		}
		return n
	case solver.Or:
		n := &CondNode{Op: "or"}
		for _, k := range x.Fs {
			n.Kids = append(n.Kids, CondToNode(k))
		}
		return n
	}
	return &CondNode{Op: "true"}
}

func termToNode(t solver.Term) *TermNode {
	switch x := t.(type) {
	case solver.Const:
		v := x.Val
		return &TermNode{C: &v}
	case solver.Sym:
		return &TermNode{Sym: x.Name}
	case solver.BinTerm:
		op := "add"
		switch x.Op {
		case solver.TSub:
			op = "sub"
		case solver.TMul:
			op = "mul"
		}
		return &TermNode{Op: op, A: termToNode(x.A), B: termToNode(x.B)}
	}
	return &TermNode{Sym: "?"}
}

// NodeToCond converts the JSON tree back to a formula.
func NodeToCond(n *CondNode) solver.Formula {
	if n == nil {
		return solver.TrueF{}
	}
	switch n.Op {
	case "true":
		return solver.TrueF{}
	case "false":
		return solver.FalseF{}
	case "atom":
		return solver.Atom{Op: cmpOp(n.Cmp), A: nodeToTerm(n.A), B: nodeToTerm(n.B)}
	case "not":
		if len(n.Kids) == 1 {
			return solver.MkNot(NodeToCond(n.Kids[0]))
		}
	case "and":
		var fs []solver.Formula
		for _, k := range n.Kids {
			fs = append(fs, NodeToCond(k))
		}
		return solver.MkAnd(fs...)
	case "or":
		var fs []solver.Formula
		for _, k := range n.Kids {
			fs = append(fs, NodeToCond(k))
		}
		return solver.MkOr(fs...)
	}
	return solver.TrueF{}
}

// cmpOp parses a comparison operator as CmpOp.String renders it; any
// other text is OpEq.
func cmpOp(s string) solver.CmpOp {
	switch s {
	case "!=":
		return solver.OpNe
	case "<":
		return solver.OpLt
	case "<=":
		return solver.OpLe
	case ">":
		return solver.OpGt
	case ">=":
		return solver.OpGe
	}
	return solver.OpEq
}

func nodeToTerm(n *TermNode) solver.Term {
	if n == nil {
		return solver.Const{Val: 0}
	}
	if n.C != nil {
		return solver.Const{Val: *n.C}
	}
	if n.Sym != "" {
		return solver.Sym{Name: n.Sym}
	}
	var op solver.TermOp
	switch n.Op {
	case "add":
		op = solver.TAdd
	case "sub":
		op = solver.TSub
	case "mul":
		op = solver.TMul
	}
	return solver.BinTerm{Op: op, A: nodeToTerm(n.A), B: nodeToTerm(n.B)}
}

// FieldString renders a byte-offset path as the spec field suffix.
func FieldString(offsets []int) string {
	var sb strings.Builder
	for _, o := range offsets {
		if o < 0 {
			sb.WriteString("@*")
		} else {
			fmt.Fprintf(&sb, "@%d", o)
		}
	}
	return sb.String()
}
