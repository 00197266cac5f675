package cir

import (
	"fmt"
	"strconv"
	"strings"
)

// TypeKind enumerates the type constructors of the kernel-C dialect.
type TypeKind int

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeInt           // all integer flavours collapse to a sized int
	TypePtr
	TypeArray
	TypeStruct
	TypeFunc
)

// Type is a kernel-C type. Types are interned per translation unit for
// structs; scalar and derived types are structurally compared.
type Type struct {
	Kind   TypeKind
	Size   int        // size in bytes (word = 8)
	Elem   *Type      // pointee (TypePtr) or element (TypeArray)
	Len    int        // array length (TypeArray)
	Struct *StructDef // TypeStruct
	Sig    *FuncSig   // TypeFunc (used for function-pointer fields)
	// Name records the spelled integer type ("int", "long", "unsigned", …)
	// for diagnostics; semantics do not depend on it.
	Name string
}

// FuncSig is a function signature.
type FuncSig struct {
	Ret    *Type
	Params []*Type
}

// StructDef is a struct definition with byte-offset field layout, mirroring
// the paper's field sensitivity ("structure fields are distinguished by the
// byte offsets from the base pointer", §7).
type StructDef struct {
	Name   string
	Fields []*FieldDef
	size   int
	byName map[string]*FieldDef
	// laying guards against recursive layout of self-referential struct
	// definitions (illegal C, but the frontend must not diverge on them).
	laying bool
}

// FieldDef is a single struct field.
type FieldDef struct {
	Name   string
	Type   *Type
	Offset int // byte offset from the start of the struct
	Index  int // declaration index
}

// Word is the byte size of pointers and default integers.
const Word = 8

var (
	// VoidType is the canonical void type.
	VoidType = &Type{Kind: TypeVoid, Name: "void"}
	// IntType is the canonical int type.
	IntType = &Type{Kind: TypeInt, Size: Word, Name: "int"}
	// CharType is the canonical char type.
	CharType = &Type{Kind: TypeInt, Size: 1, Name: "char"}
)

// PtrTo returns a pointer type to elem.
func PtrTo(elem *Type) *Type {
	return &Type{Kind: TypePtr, Size: Word, Elem: elem, Name: elem.Name + "*"}
}

// ArrayOf returns an array type of n elems.
func ArrayOf(elem *Type, n int) *Type {
	sz := 0
	if elem != nil {
		sz = elem.SizeOf() * n
	}
	return &Type{Kind: TypeArray, Size: sz, Elem: elem, Len: n}
}

// FuncType returns a function type with the given signature.
func FuncType(sig *FuncSig) *Type { return &Type{Kind: TypeFunc, Size: Word, Sig: sig} }

// SizeOf returns the byte size of the type (0 for void / incomplete).
func (t *Type) SizeOf() int {
	if t == nil {
		return 0
	}
	switch t.Kind {
	case TypeStruct:
		if t.Struct == nil {
			return 0
		}
		return t.Struct.Size()
	default:
		return t.Size
	}
}

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t != nil && t.Kind == TypePtr }

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t != nil && t.Kind == TypeInt }

// IsStruct reports whether t is a struct type.
func (t *Type) IsStruct() bool { return t != nil && t.Kind == TypeStruct }

// IsFuncPtr reports whether t is a pointer to a function type.
func (t *Type) IsFuncPtr() bool {
	return t.IsPtr() && t.Elem != nil && t.Elem.Kind == TypeFunc
}

// String renders the type in C-ish syntax.
func (t *Type) String() string {
	switch {
	case t == nil:
		return "<nil>"
	case t.Kind == TypeVoid:
		return "void"
	case t.Kind == TypeInt && t.Name != "":
		return t.Name
	}
	var buf [64]byte
	return string(t.AppendString(buf[:0]))
}

// AppendString appends t.String() to b.
func (t *Type) AppendString(b []byte) []byte {
	if t == nil {
		return append(b, "<nil>"...)
	}
	switch t.Kind {
	case TypeVoid:
		return append(b, "void"...)
	case TypeInt:
		if t.Name != "" {
			return append(b, t.Name...)
		}
		return strconv.AppendInt(append(b, "int"...), int64(t.Size*8), 10)
	case TypePtr:
		return append(t.Elem.AppendString(b), " *"...)
	case TypeArray:
		b = append(t.Elem.AppendString(b), '[')
		return append(strconv.AppendInt(b, int64(t.Len), 10), ']')
	case TypeStruct:
		if t.Struct != nil {
			return append(append(b, "struct "...), t.Struct.Name...)
		}
		return append(b, "struct <anon>"...)
	case TypeFunc:
		b = append(t.Sig.Ret.AppendString(b), " (*)("...)
		for i, p := range t.Sig.Params {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = p.AppendString(b)
		}
		return append(b, ')')
	}
	return append(b, "<bad type>"...)
}

// Layout (re)computes the byte offsets of all fields. Fields are laid out
// sequentially with Word alignment for pointers/ints, matching the byte
// offset field discrimination of the paper.
func (s *StructDef) Layout() {
	if s.laying {
		return // cyclic embedding: treat the inner occurrence as incomplete
	}
	s.laying = true
	defer func() { s.laying = false }()
	off := 0
	s.byName = make(map[string]*FieldDef, len(s.Fields))
	for i, f := range s.Fields {
		align := Word
		if f.Type != nil && f.Type.Kind == TypeInt && f.Type.Size < Word {
			align = f.Type.Size
		}
		if align > 0 && off%align != 0 {
			off += align - off%align
		}
		f.Offset = off
		f.Index = i
		sz := f.Type.SizeOf()
		if sz == 0 {
			sz = Word
		}
		off += sz
		s.byName[f.Name] = f
	}
	if off%Word != 0 {
		off += Word - off%Word
	}
	s.size = off
}

// Size returns the laid-out byte size of the struct.
func (s *StructDef) Size() int {
	if s.size == 0 && len(s.Fields) > 0 {
		s.Layout()
	}
	return s.size
}

// Field returns the field with the given name, or nil.
func (s *StructDef) Field(name string) *FieldDef {
	if s.byName == nil {
		s.Layout()
	}
	return s.byName[name]
}

// FieldAt returns the field covering the given byte offset, or nil.
func (s *StructDef) FieldAt(offset int) *FieldDef {
	if s.byName == nil {
		s.Layout()
	}
	for _, f := range s.Fields {
		sz := f.Type.SizeOf()
		if sz == 0 {
			sz = Word
		}
		if offset >= f.Offset && offset < f.Offset+sz {
			return f
		}
	}
	return nil
}

// SameType reports structural type equality (structs by identity of def).
func SameType(a, b *Type) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TypeVoid:
		return true
	case TypeInt:
		return a.Size == b.Size
	case TypePtr:
		return SameType(a.Elem, b.Elem)
	case TypeArray:
		return a.Len == b.Len && SameType(a.Elem, b.Elem)
	case TypeStruct:
		if a.Struct == b.Struct {
			return true
		}
		return a.Struct != nil && b.Struct != nil && a.Struct.Name == b.Struct.Name
	case TypeFunc:
		return SameSig(a.Sig, b.Sig)
	}
	return false
}

// SameSig reports signature equality.
func SameSig(a, b *FuncSig) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	if !SameType(a.Ret, b.Ret) {
		return false
	}
	for i := range a.Params {
		if !SameType(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

// SigString renders a signature as a stable key for type-based indirect-call
// resolution ("indirect calls are resolved by type analysis", paper §7).
func SigString(sig *FuncSig) string {
	if sig == nil {
		return "()"
	}
	var sb strings.Builder
	sb.WriteString(typeKey(sig.Ret))
	sb.WriteByte('(')
	for i, p := range sig.Params {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(typeKey(p))
	}
	sb.WriteByte(')')
	return sb.String()
}

func typeKey(t *Type) string {
	if t == nil {
		return "?"
	}
	switch t.Kind {
	case TypeVoid:
		return "v"
	case TypeInt:
		return fmt.Sprintf("i%d", t.Size)
	case TypePtr:
		return "p" + typeKey(t.Elem)
	case TypeArray:
		return fmt.Sprintf("a%d%s", t.Len, typeKey(t.Elem))
	case TypeStruct:
		if t.Struct != nil {
			return "s:" + t.Struct.Name
		}
		return "s:?"
	case TypeFunc:
		return "f" + SigString(t.Sig)
	}
	return "?"
}
