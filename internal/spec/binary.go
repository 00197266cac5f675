package spec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"seal/internal/solver"
)

// A DB's binary form is the encoding its Hash digests, and the persistent
// cache's per-patch payload:
//
//	uvarint len(Specs) | per spec: appendSpec
//
// Every field is self-delimiting (uvarint-length strings, varint numbers,
// tagged formula nodes with counted children), so a concatenation of
// specs is unambiguous and a DB's form can be followed by other fields.
// Conditions are encoded node by node as CondToNode would render them, so
// the binary form tells apart exactly what MarshalJSON does (up to invalid
// UTF-8, which JSON replaces and the binary form keeps), and a decoded DB
// equals the DB's JSON round trip.

var errBinary = errors.New("spec: malformed binary spec database")

// minSpecBytes is the smallest binary spec: one byte per field (5 Spec
// strings, the forbidden flag, the relation kind, 7 Value fields, 3 × 5
// Use fields, the condition). Decoded counts are checked against it, so no
// input allocates more than a fixed multiple of its own length.
const minSpecBytes = 30

// maxCondDepth bounds the nesting of a decoded condition, as encoding/json
// bounds the nesting of the JSON form.
const maxCondDepth = 10000

// MarshalBinary returns the DB's binary form. Hash is the hex SHA-256 of
// these bytes. A null entry in Specs is an error naming its index.
func (db *DB) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 512*len(db.Specs)+binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, uint64(len(db.Specs)))
	for i, s := range db.Specs {
		if s == nil {
			return nil, fmt.Errorf("spec entry %d is null", i)
		}
		b = appendSpec(b, s)
	}
	return b, nil
}

// Hash is the content fingerprint of the database: the hex SHA-256 of its
// binary form, streamed to the hash in chunks rather than built whole. Two
// databases hash alike exactly when their MarshalJSON bytes agree, so
// flat-file, store-loaded and in-memory specs fingerprint alike, and no
// JSON is built to get there. Every layer that identifies a spec set by
// content — detection cache keys, serve request envelopes — goes through
// this one function. Strings are hashed as their bytes: JSON would replace
// invalid UTF-8 with U+FFFD, so on such strings the hash tells apart what
// the JSON form conflates, never the reverse.
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

// appendSpec appends the binary form of one spec.
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

// UnmarshalBinary decodes MarshalBinary's output into db, replacing its
// contents; trailing bytes are an error.
func (db *DB) UnmarshalBinary(data []byte) error {
	out, n, err := ReadBinary(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return errBinary
	}
	*db = *out
	return nil
}

// ReadBinary decodes the binary DB at the front of data and returns it
// with the number of bytes it took. Conditions are rebuilt through the
// constructors NodeToCond uses, so the result equals the DB's JSON round
// trip. Every count and length is checked against the input. The input is
// copied into one string, and every string field is a substring of it.
func ReadBinary(data []byte) (*DB, int, error) {
	d := decoder{buf: data, s: string(data)}
	n := d.count(minSpecBytes)
	db := &DB{Specs: make([]*Spec, n)}
	slab := make([]Spec, n)
	for i := range slab {
		s := &slab[i]
		d.spec(s)
		db.Specs[i] = s
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return db, d.off, nil
}

// decoder reads buf from off; s is buf as one string. The first malformed
// field sets err; every later read then returns a zero value.
type decoder struct {
	buf   []byte
	s     string
	off   int
	err   error
	depth int              // nesting of the condition being decoded
	kids  []solver.Formula // the operands of the open And/Or nodes
}

func (d *decoder) fail() {
	d.err, d.off = errBinary, len(d.buf)
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if d.off == len(d.buf) {
		d.fail()
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

// count reads an element count, each element taking at least min bytes of
// the remaining input.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.buf)-d.off)/min) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.buf)-d.off) {
		d.fail()
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *decoder) spec(s *Spec) {
	s.ID, s.Iface, s.API = d.str(), d.str(), d.str()
	switch d.byte() {
	case 0:
	case 1:
		s.Constraint.Forbidden = true
	default:
		d.fail()
	}
	r := &s.Constraint.Rel
	r.Kind = RelKind(d.int())
	d.value(&r.V)
	d.use(&r.U)
	d.use(&r.U1)
	d.use(&r.U2)
	r.Cond = d.cond()
	s.Origin, s.OriginPatch = Origin(d.str()), d.str()
}

func (d *decoder) value(v *Value) {
	v.Kind, v.Iface = ValueKind(d.int()), d.str()
	v.ArgIndex, v.API, v.Global = d.int(), d.str(), d.str()
	v.Lit, v.Field = d.varint(), d.str()
}

func (d *decoder) use(u *Use) {
	u.Kind, u.API = UseKind(d.int()), d.str()
	u.ArgIndex, u.Iface, u.Global = d.int(), d.str(), d.str()
}

// enter opens one level of condition nesting, failing past maxCondDepth.
func (d *decoder) enter() bool {
	if d.depth++; d.depth > maxCondDepth {
		d.fail()
		return false
	}
	return true
}

func (d *decoder) cond() solver.Formula {
	switch d.byte() {
	case 't':
		return solver.TrueF{}
	case 'f':
		return solver.FalseF{}
	case 'a':
		op := cmpOp(d.str())
		a := d.term()
		b := d.term()
		return solver.Atom{Op: op, A: a, B: b}
	case '!':
		if !d.enter() {
			return nil
		}
		f := solver.MkNot(d.cond())
		d.depth--
		return f
	case '&':
		return d.conds(solver.MkAnd)
	case '|':
		return d.conds(solver.MkOr)
	}
	d.fail()
	return nil
}

// conds decodes a counted operand list and joins it with mk. Operands
// collect on the decoder's shared stack, which mk copies out of.
func (d *decoder) conds(mk func(...solver.Formula) solver.Formula) solver.Formula {
	if !d.enter() {
		return nil
	}
	n := d.count(1)
	base := len(d.kids)
	for i := 0; i < n; i++ {
		d.kids = append(d.kids, d.cond())
	}
	f := mk(d.kids[base:]...)
	clear(d.kids[base:])
	d.kids = d.kids[:base]
	d.depth--
	return f
}

func (d *decoder) term() solver.Term {
	switch d.byte() {
	case 'c':
		return solver.Const{Val: d.varint()}
	case 's':
		return symTerm(d.str())
	case 'b':
		var op solver.TermOp
		switch d.byte() {
		case '+':
			op = solver.TAdd
		case '-':
			op = solver.TSub
		case '*':
			op = solver.TMul
		default:
			d.fail()
			return nil
		}
		if !d.enter() {
			return nil
		}
		a := d.term()
		b := d.term()
		d.depth--
		return solver.BinTerm{Op: op, A: a, B: b}
	}
	d.fail()
	return nil
}

// symTerm is the term a symbol decodes to from its binary form, matching
// nodeToTerm: the empty symbol's tree is {}, which reads back as 0 + 0.
func symTerm(name string) solver.Term {
	if name == "" {
		return solver.BinTerm{Op: solver.TAdd, A: solver.Const{Val: 0}, B: solver.Const{Val: 0}}
	}
	return solver.Sym{Name: name}
}
