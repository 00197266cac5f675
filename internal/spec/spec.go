// Package spec implements the interface-specification formulation of paper
// Fig. 2: quantified constraints over path relations (reachability v ↪^c u
// and order precedence u1 ≺ u2) between abstract values V (interface
// arguments, API returns, globals, literals, and their fields) and uses U
// (API arguments, interface returns, global stores, deref/div/index sites).
// Specifications serialize to JSON so an inferred database is reusable
// across runs (paper §8.4: inference is a one-time effort).
package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
func (v Value) Key() string {
	base := ""
	switch v.Kind {
	case VIfaceArg:
		base = fmt.Sprintf("arg%d[%s]", v.ArgIndex, v.Iface)
	case VAPIRet:
		base = fmt.Sprintf("ret[%s]", v.API)
	case VGlobal:
		base = fmt.Sprintf("global[%s]", v.Global)
	case VLiteral:
		base = fmt.Sprintf("lit[%d]", v.Lit)
	case VUninit:
		base = "uninit"
	}
	if v.Field != "" {
		base += v.Field
	}
	return base
}

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
func (u Use) Key() string {
	switch u.Kind {
	case UAPIArg:
		return fmt.Sprintf("arg%d[%s]", u.ArgIndex, u.API)
	case UIfaceRet:
		return fmt.Sprintf("ret[%s]", u.Iface)
	case UGlobalStore:
		return fmt.Sprintf("store[%s]", u.Global)
	case UDeref:
		return "deref"
	case UIndex:
		return "index"
	case UDiv:
		return "div"
	case UParamStore:
		return fmt.Sprintf("pstore%d[%s]", u.ArgIndex, u.Iface)
	}
	return "?"
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
func (r Relation) String() string {
	switch r.Kind {
	case RelReach:
		c := solver.String(r.Cond)
		if c == "true" {
			return fmt.Sprintf("%s ↪ %s", r.V, r.U)
		}
		return fmt.Sprintf("%s ↪ %s under (%s)", r.V, r.U, c)
	case RelOrder:
		return fmt.Sprintf("(%s ↪ %s) ∧ (%s ↪ %s) ∧ (%s ≺ %s)",
			r.V, r.U1, r.V, r.U2, r.U2.Key(), r.U1.Key())
	}
	return "?"
}

// Constraint is a quantified relation: Forbidden constraints (∄) are
// violated when a matching realization exists; Required constraints (∀/∃
// removed-negation relations) are violated when none exists.
type Constraint struct {
	Forbidden bool     `json:"forbidden"`
	Rel       Relation `json:"rel"`
}

// String implements fmt.Stringer.
func (c Constraint) String() string {
	if c.Forbidden {
		return "∄: " + c.Rel.String()
	}
	return "∀: " + c.Rel.String()
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
func (s *Spec) Key() string {
	return s.KeyWith(s.Constraint.String())
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

// Dedup removes duplicate specs by Key, keeping first occurrences.
func (db *DB) Dedup() {
	seen := make(map[string]bool, len(db.Specs))
	var out []*Spec
	for _, s := range db.Specs {
		k := s.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	db.Specs = out
}

// MarshalJSON serializes the DB with conditions in tree form. It works on
// shallow spec copies (Relation is a value field) so marshaling never
// writes to the shared spec objects — a DB is serialized for a shard job
// or a spec-store record while concurrent detections read the very same
// specs.
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

// Hash is the content fingerprint of the database: the hex SHA-256 of a
// length-prefixed encoding of every spec's JSON-visible fields, with each
// condition walked node by node as CondToNode would render it (see
// appendSpec). Two databases hash alike exactly when their MarshalJSON
// bytes agree, so flat-file, store-loaded and in-memory specs fingerprint
// alike, and no JSON is built to get there. Every layer that identifies a
// spec set by content — detection cache keys, serve request envelopes —
// goes through this one function. Strings are hashed as their bytes: JSON
// would replace invalid UTF-8 with U+FFFD, so on such strings the hash
// tells apart what the JSON form conflates, never the reverse.
func (db *DB) Hash() string {
	h := sha256.New()
	buf := binary.AppendUvarint(make([]byte, 0, 1<<10), uint64(len(db.Specs)))
	for _, s := range db.Specs {
		if len(buf) > 8<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = appendSpec(buf, s)
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// appendSpec appends the hash encoding of one spec. Every field is
// self-delimiting (uvarint-length strings, varint numbers, tagged formula
// nodes with counted children), so a concatenation of specs is
// unambiguous.
func appendSpec(b []byte, s *Spec) []byte {
	b = appendStr(appendStr(appendStr(b, s.ID), s.Iface), s.API)
	forbidden := byte(0)
	if s.Constraint.Forbidden {
		forbidden = 1
	}
	r := &s.Constraint.Rel
	b = binary.AppendVarint(append(b, forbidden), int64(r.Kind))
	b = appendUse(appendUse(appendUse(appendValue(b, r.V), r.U), r.U1), r.U2)
	b = appendCond(b, r.Cond)
	return appendStr(appendStr(b, string(s.Origin)), s.OriginPatch)
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendValue(b []byte, v Value) []byte {
	b = appendStr(binary.AppendVarint(b, int64(v.Kind)), v.Iface)
	b = appendStr(appendStr(binary.AppendVarint(b, int64(v.ArgIndex)), v.API), v.Global)
	return appendStr(binary.AppendVarint(b, v.Lit), v.Field)
}

func appendUse(b []byte, u Use) []byte {
	b = appendStr(binary.AppendVarint(b, int64(u.Kind)), u.API)
	return appendStr(appendStr(binary.AppendVarint(b, int64(u.ArgIndex)), u.Iface), u.Global)
}

// appendCond encodes a formula node by node with CondToNode's cases: nil,
// TrueF and any other type encode as "true".
func appendCond(b []byte, f solver.Formula) []byte {
	switch x := f.(type) {
	case solver.FalseF:
		return append(b, 'f')
	case solver.Atom:
		b = appendStr(append(b, 'a'), x.Op.String())
		return appendTerm(appendTerm(b, x.A), x.B)
	case solver.Not:
		return appendCond(append(b, '!'), x.F)
	case solver.And:
		return appendConds(append(b, '&'), x.Fs)
	case solver.Or:
		return appendConds(append(b, '|'), x.Fs)
	}
	return append(b, 't')
}

func appendConds(b []byte, fs []solver.Formula) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = appendCond(b, f)
	}
	return b
}

// appendTerm encodes a term with termToNode's cases: an unknown arithmetic
// operator is "add", and any other term is the symbol "?".
func appendTerm(b []byte, t solver.Term) []byte {
	switch x := t.(type) {
	case solver.Const:
		return binary.AppendVarint(append(b, 'c'), x.Val)
	case solver.Sym:
		return appendStr(append(b, 's'), x.Name)
	case solver.BinTerm:
		op := byte('+')
		switch x.Op {
		case solver.TSub:
			op = '-'
		case solver.TMul:
			op = '*'
		}
		return appendTerm(appendTerm(append(b, 'b', op), x.A), x.B)
	}
	return appendStr(append(b, 's'), "?")
}

// UnmarshalJSON restores conditions from tree form. A caller holding the
// bytes calls it directly: json.Unmarshal(data, &db) would scan the whole
// input once to validate it before handing it here to be scanned again.
func (db *DB) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, (*DBFields)(db)); err != nil {
		return err
	}
	_, err := (*DBFields)(db).DB()
	return err
}

// DBFields is DB's JSON shape without DB's codec. A record that nests a
// DB (a cache entry, a spec-store record) declares the field as DBFields,
// so the record's own json.Unmarshal decodes the DB's bytes in that one
// pass, and then calls DB to rebuild the conditions. Never encode one: it
// carries the decoded condition trees, not Cond.
type DBFields DB

// DB rebuilds every spec's condition from its tree form and returns the
// fields as a DB sharing their storage. A null entry in specs is an
// error naming its index.
func (f *DBFields) DB() (*DB, error) {
	for i, s := range f.Specs {
		if s == nil {
			return nil, fmt.Errorf("spec entry %d is null", i)
		}
		s.Constraint.Rel.Cond = NodeToCond(s.Constraint.Rel.CondJSON)
	}
	return (*DB)(f), nil
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
		var op solver.CmpOp
		switch n.Cmp {
		case "==":
			op = solver.OpEq
		case "!=":
			op = solver.OpNe
		case "<":
			op = solver.OpLt
		case "<=":
			op = solver.OpLe
		case ">":
			op = solver.OpGt
		case ">=":
			op = solver.OpGe
		}
		return solver.Atom{Op: op, A: nodeToTerm(n.A), B: nodeToTerm(n.B)}
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
