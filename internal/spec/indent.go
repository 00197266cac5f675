package spec

import (
	"fmt"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"seal/internal/solver"
)

// MarshalIndent renders the DB as a specs.json file: the bytes of
// json.MarshalIndent(db, "", "  "), written in one pass from the specs.
// json.MarshalIndent would run MarshalJSON, build a tree per condition,
// then validate and re-indent the output in two more passes. A null entry
// in Specs is an error naming its index.
func (db *DB) MarshalIndent() ([]byte, error) {
	w := indentWriter{b: make([]byte, 0, 2<<10*len(db.Specs)+32)}
	o := w.begin(0)
	o.key("specs")
	if len(db.Specs) == 0 {
		w.b = append(w.b, "[]"...)
	} else {
		w.b = append(w.b, '[')
		for i, s := range db.Specs {
			if s == nil {
				return nil, fmt.Errorf("spec entry %d is null", i)
			}
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.newline(2)
			w.spec(s, 2)
		}
		w.newline(1)
		w.b = append(w.b, ']')
	}
	o.end()
	return w.b, nil
}

// indentWriter appends JSON in json.MarshalIndent's layout with a two-space
// indent: every object member and array element on its own line, and an
// empty object or array as {} or [].
type indentWriter struct{ b []byte }

// indent is a newline and the indent of the first depths, as one string.
const indent = "\n                                "

func (w *indentWriter) newline(depth int) {
	if n := 1 + 2*depth; n <= len(indent) {
		w.b = append(w.b, indent[:n]...)
		return
	}
	w.b = append(w.b, indent...)
	for i := (len(indent) - 1) / 2; i < depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// object is an open JSON object whose braces sit at depth.
type object struct {
	w       *indentWriter
	depth   int
	members int
}

func (w *indentWriter) begin(depth int) object {
	w.b = append(w.b, '{')
	return object{w: w, depth: depth}
}

// key starts a member; its value is written next, at depth o.depth+1.
func (o *object) key(name string) {
	if o.members > 0 {
		o.w.b = append(o.w.b, ',')
	}
	o.members++
	o.w.newline(o.depth + 1)
	o.w.b = append(append(append(o.w.b, '"'), name...), `": `...)
}

func (o *object) str(name, v string) {
	o.key(name)
	o.w.b = AppendJSONString(o.w.b, v, true)
}

// strOmit and intOmit are str and int for omitempty fields.
func (o *object) strOmit(name, v string) {
	if v != "" {
		o.str(name, v)
	}
}

func (o *object) int(name string, v int64) {
	o.key(name)
	o.w.b = strconv.AppendInt(o.w.b, v, 10)
}

func (o *object) intOmit(name string, v int64) {
	if v != 0 {
		o.int(name, v)
	}
}

func (o *object) end() {
	if o.members > 0 {
		o.w.newline(o.depth)
	}
	o.w.b = append(o.w.b, '}')
}

// spec writes a Spec with its fields' JSON names, order and omitempty
// rules.
func (w *indentWriter) spec(s *Spec, depth int) {
	o := w.begin(depth)
	o.str("id", s.ID)
	o.strOmit("iface", s.Iface)
	o.strOmit("api", s.API)
	o.key("constraint")
	c := w.begin(depth + 1)
	c.key("forbidden")
	w.b = strconv.AppendBool(w.b, s.Constraint.Forbidden)
	c.key("rel")
	r := &s.Constraint.Rel
	rel := w.begin(depth + 2)
	rel.int("kind", int64(r.Kind))
	rel.key("v")
	w.value(r.V, depth+3)
	rel.key("u")
	w.use(&r.U, depth+3)
	// u1 and u2 are structs, which omitempty never drops.
	rel.key("u1")
	w.use(&r.U1, depth+3)
	rel.key("u2")
	w.use(&r.U2, depth+3)
	rel.key("cond")
	w.cond(r.Cond, depth+3)
	rel.end()
	c.end()
	o.str("origin", string(s.Origin))
	o.strOmit("originPatch", s.OriginPatch)
	o.end()
}

func (w *indentWriter) value(v Value, depth int) {
	o := w.begin(depth)
	o.int("kind", int64(v.Kind))
	o.strOmit("iface", v.Iface)
	o.intOmit("argIndex", int64(v.ArgIndex))
	o.strOmit("api", v.API)
	o.strOmit("global", v.Global)
	o.intOmit("lit", v.Lit)
	o.strOmit("field", v.Field)
	o.end()
}

func (w *indentWriter) use(u *Use, depth int) {
	o := w.begin(depth)
	o.int("kind", int64(u.Kind))
	o.strOmit("api", u.API)
	o.intOmit("argIndex", int64(u.ArgIndex))
	o.strOmit("iface", u.Iface)
	o.strOmit("global", u.Global)
	o.end()
}

// cond writes a formula as its CondToNode tree.
func (w *indentWriter) cond(f solver.Formula, depth int) {
	o := w.begin(depth)
	var kids []solver.Formula
	switch x := f.(type) {
	case solver.FalseF:
		o.str("op", "false")
	case solver.Atom:
		o.str("op", "atom")
		o.str("cmp", x.Op.String())
		o.key("a")
		w.term(x.A, depth+1)
		o.key("b")
		w.term(x.B, depth+1)
	case solver.Not:
		o.str("op", "not")
		kids = []solver.Formula{x.F}
	case solver.And:
		o.str("op", "and")
		kids = x.Fs
	case solver.Or:
		o.str("op", "or")
		kids = x.Fs
	default:
		o.str("op", "true")
	}
	if len(kids) > 0 {
		o.key("kids")
		w.b = append(w.b, '[')
		for i, k := range kids {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.newline(depth + 2)
			w.cond(k, depth+2)
		}
		w.newline(depth + 1)
		w.b = append(w.b, ']')
	}
	o.end()
}

// term writes a term as its termToNode tree.
func (w *indentWriter) term(t solver.Term, depth int) {
	o := w.begin(depth)
	switch x := t.(type) {
	case solver.Const:
		o.int("c", x.Val)
	case solver.Sym:
		o.strOmit("sym", x.Name)
	case solver.BinTerm:
		op := "add"
		switch x.Op {
		case solver.TSub:
			op = "sub"
		case solver.TMul:
			op = "mul"
		}
		o.str("op", op)
		o.key("a")
		w.term(x.A, depth+1)
		o.key("b")
		w.term(x.B, depth+1)
	default:
		o.str("sym", "?")
	}
	o.end()
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s quoted as an encoding/json encoder quotes it:
// invalid UTF-8 as \ufffd, U+2028 and U+2029 escaped, and, when
// escapeHTML is set (the encoder's default, and json.MarshalIndent's), <,
// > and & as \u00XX. Runs that need no escaping are skipped eight bytes
// at a time.
func AppendJSONString(b []byte, s string, escapeHTML bool) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		for i+8 <= len(s) {
			w := s[i : i+8]
			x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
				uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
			q, bs := x^'"'*lsb8, x^'\\'*lsb8
			m := x | (x - ' '*lsb8) | (q-lsb8)&^q | (bs-lsb8)&^bs
			if escapeHTML {
				lt, gt, amp := x^'<'*lsb8, x^'>'*lsb8, x^'&'*lsb8
				m |= (lt-lsb8)&^lt | (gt-lsb8)&^gt | (amp-lsb8)&^amp
			}
			if m&msb8 != 0 {
				i += bits.TrailingZeros64(m&msb8) >> 3 // the first byte needing work
				break
			}
			i += 8
		}
		if i == len(s) {
			break
		}
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && (!escapeHTML || c != '<' && c != '>' && c != '&') {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// Eight bytes at a time, x holds them little-endian: the top bit of each
// byte of m flags a byte AppendJSONString cannot copy as is — non-ASCII
// (x itself), below ' ' (x-' '*lsb8), and '"', '\\' and, with
// escapeHTML, '<', '>' and '&' ((v-lsb8)&^v flags the zero bytes of
// v = x^c*lsb8). The lowest flag marks the first such byte exactly: a
// borrow only spills into bytes above a true match.
const (
	lsb8 = 0x0101010101010101
	msb8 = 0x8080808080808080
)
