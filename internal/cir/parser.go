package cir

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with position information.
type ParseError struct {
	File string
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Line, e.Col, e.Msg)
}

// BuiltinDefines are macro constants available in every translation unit,
// mirroring the errno and helper constants kernel code relies on.
var BuiltinDefines = map[string]int64{
	"NULL":       0,
	"EPERM":      1,
	"ENOENT":     2,
	"EIO":        5,
	"ENXIO":      6,
	"EAGAIN":     11,
	"ENOMEM":     12,
	"EFAULT":     14,
	"EBUSY":      16,
	"ENODEV":     19,
	"EINVAL":     22,
	"ENOSPC":     28,
	"ERANGE":     34,
	"ENODATA":    61,
	"ETIMEDOUT":  110,
	"GFP_KERNEL": 0,
	"GFP_ATOMIC": 1,
}

// Parser is a recursive-descent parser for the kernel-C dialect.
type Parser struct {
	fileName string
	toks     tokens
	pos      int
	structs  map[string]*StructDef
	defines  map[string]int64
}

// ParseFile parses a full translation unit.
func ParseFile(name, src string) (*File, error) {
	buf := tokenBufs.Get().(*[]tok)
	defer tokenBufs.Put(buf)
	return parseFile(name, src, buf)
}

// parseFile is ParseFile lexing into *buf, which it leaves holding the
// (possibly grown) buffer for the next file.
func parseFile(name, src string, buf *[]tok) (*File, error) {
	p := &Parser{
		fileName: name,
		structs:  make(map[string]*StructDef),
		defines:  make(map[string]int64),
	}
	err := p.toks.lex(*buf, src)
	*buf = p.toks.toks[:0]
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for k, v := range BuiltinDefines {
		p.defines[k] = v
	}
	f := &File{
		Name:    name,
		Structs: p.structs,
		Defines: p.defines,
	}
	for !p.at(TokEOF) {
		if p.at(TokHashDefine) {
			if err := p.handleDefine(p.next()); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.parseTopLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// MustParseFile parses src and panics on error; intended for tests and
// generated corpora that are correct by construction.
func MustParseFile(name, src string) *File {
	f, err := ParseFile(name, src)
	if err != nil {
		panic(err)
	}
	return f
}

func (p *Parser) cur() Token        { return p.toks.at(p.pos) }
func (p *Parser) at(k TokKind) bool { return p.toks.toks[p.pos].kind == k }
func (p *Parser) atAny(ks ...TokKind) bool {
	for _, k := range ks {
		if p.toks.toks[p.pos].kind == k {
			return true
		}
	}
	return false
}
func (p *Parser) peek(n int) Token {
	if p.pos+n >= len(p.toks.toks) {
		return p.toks.at(len(p.toks.toks) - 1)
	}
	return p.toks.at(p.pos + n)
}
func (p *Parser) next() Token {
	t := p.toks.at(p.pos)
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return &ParseError{File: p.fileName, Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) posOf(t Token) Pos { return Pos{Line: t.Line, Col: t.Col} }

func (p *Parser) handleDefine(t Token) error {
	parts := strings.Fields(t.Text)
	if len(parts) < 2 {
		if len(parts) == 1 {
			p.defines[parts[0]] = 1
			return nil
		}
		return &ParseError{File: p.fileName, Msg: "malformed #define", Line: t.Line, Col: t.Col}
	}
	name := parts[0]
	valText := strings.TrimSpace(strings.Join(parts[1:], " "))
	valText = strings.Trim(valText, "()")
	neg := false
	if strings.HasPrefix(valText, "-") {
		neg = true
		valText = valText[1:]
	}
	base := 10
	if strings.HasPrefix(valText, "0x") || strings.HasPrefix(valText, "0X") {
		base = 16
		valText = valText[2:]
	}
	v, err := strconv.ParseInt(valText, base, 64)
	if err != nil {
		// Non-integer macro bodies (e.g. referencing another macro).
		if other, ok := p.defines[valText]; ok {
			v = other
		} else {
			return &ParseError{File: p.fileName, Msg: fmt.Sprintf("unsupported #define body %q", valText), Line: t.Line, Col: t.Col}
		}
	}
	if neg {
		v = -v
	}
	p.defines[name] = v
	return nil
}

// structRef returns the (possibly forward-declared) struct with name.
func (p *Parser) structRef(name string) *StructDef {
	if s, ok := p.structs[name]; ok {
		return s
	}
	s := &StructDef{Name: name}
	p.structs[name] = s
	return s
}

// ---------------------------------------------------------------------------
// Top level

func (p *Parser) parseTopLevel(f *File) error {
	static := false
	for p.atAny(TokKwStatic, TokKwExtern, TokKwConst) {
		if p.at(TokKwStatic) {
			static = true
		}
		p.next()
	}

	// Struct definition: struct Name { ... } ;  (or a global of struct type)
	if p.at(TokKwStruct) && p.peek(1).Kind == TokIdent && p.peek(2).Kind == TokLBrace {
		if err := p.parseStructDef(); err != nil {
			return err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
		return nil
	}

	if p.at(TokKwEnum) {
		return p.parseEnumDef()
	}

	base, err := p.parseBaseType()
	if err != nil {
		return err
	}
	name, typ, declPos, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}

	// Function definition or prototype.
	if p.at(TokLParen) && typ.Kind != TypeFunc {
		return p.parseFuncRest(f, name, typ, declPos, static)
	}
	if typ.Kind == TypeFunc {
		// Declarator already consumed the parameter list via (*name)(...)
		return p.errf("top-level function-pointer declarations are not supported")
	}

	// Global variable.
	g := &GlobalDecl{Name: name, Type: typ, Pos: declPos}
	if p.at(TokAssign) {
		p.next()
		init, err := p.parseInitializer()
		if err != nil {
			return err
		}
		g.Init = init
	}
	if _, err := p.expect(TokSemi); err != nil {
		return err
	}
	f.Globals = append(f.Globals, g)
	return nil
}

func (p *Parser) parseEnumDef() error {
	p.next() // enum
	if p.at(TokIdent) {
		p.next()
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	nextVal := int64(0)
	for !p.at(TokRBrace) {
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return err
		}
		val := nextVal
		if p.at(TokAssign) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			v, ok := p.constFold(e)
			if !ok {
				return p.errf("enum value for %s is not constant", nameTok.Text)
			}
			val = v
		}
		p.defines[nameTok.Text] = val
		nextVal = val + 1
		if p.at(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return err
	}
	_, err := p.expect(TokSemi)
	return err
}

func (p *Parser) constFold(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, true
	case *UnaryExpr:
		v, ok := p.constFold(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case TokMinus:
			return -v, true
		case TokNot:
			if v == 0 {
				return 1, true
			}
			return 0, true
		case TokTilde:
			return ^v, true
		}
	case *BinaryExpr:
		a, ok1 := p.constFold(x.X)
		b, ok2 := p.constFold(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case TokPlus:
			return a + b, true
		case TokMinus:
			return a - b, true
		case TokStar:
			return a * b, true
		case TokShl:
			return a << uint(b), true
		case TokShr:
			return a >> uint(b), true
		case TokPipe:
			return a | b, true
		case TokAmp:
			return a & b, true
		}
	}
	return 0, false
}

func (p *Parser) parseStructDef() error {
	p.next() // struct
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	s := p.structRef(nameTok.Text)
	if len(s.Fields) > 0 {
		return p.errf("struct %s redefined", nameTok.Text)
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return err
	}
	for !p.at(TokRBrace) {
		base, err := p.parseBaseType()
		if err != nil {
			return err
		}
		for {
			name, typ, _, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			s.Fields = append(s.Fields, &FieldDef{Name: name, Type: typ})
			if p.at(TokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(TokSemi); err != nil {
			return err
		}
	}
	p.next() // }
	s.Layout()
	return nil
}

// parseBaseType parses a non-derived type: int/char/long/void/unsigned
// combinations or `struct Name`.
func (p *Parser) parseBaseType() (*Type, error) {
	for p.at(TokKwConst) {
		p.next()
	}
	switch {
	case p.at(TokKwStruct) || p.at(TokKwUnion):
		p.next()
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		s := p.structRef(nameTok.Text)
		return &Type{Kind: TypeStruct, Struct: s, Name: "struct " + s.Name}, nil
	case p.at(TokKwVoid):
		p.next()
		return VoidType, nil
	case p.atAny(TokKwInt, TokKwChar, TokKwLong, TokKwShort, TokKwUnsigned, TokKwSigned):
		size := Word
		name := ""
		for p.atAny(TokKwInt, TokKwChar, TokKwLong, TokKwShort, TokKwUnsigned, TokKwSigned, TokKwConst) {
			t := p.next()
			switch t.Kind {
			case TokKwChar:
				size = 1
			case TokKwShort:
				size = 2
			}
			if name != "" {
				name += " "
			}
			name += t.Kind.String()
		}
		if size == 1 {
			return CharType, nil
		}
		return &Type{Kind: TypeInt, Size: size, Name: name}, nil
	case p.at(TokIdent):
		// Typedef-style names used by the corpus: treat u8..u64, size_t etc.
		// as int flavours.
		switch p.cur().Text {
		case "u8", "s8", "__u8":
			p.next()
			return CharType, nil
		case "u16", "s16", "__u16":
			p.next()
			return &Type{Kind: TypeInt, Size: 2, Name: "u16"}, nil
		case "u32", "s32", "__u32", "uint", "gfp_t", "dma_addr_t":
			p.next()
			return &Type{Kind: TypeInt, Size: 4, Name: "u32"}, nil
		case "u64", "s64", "__u64", "size_t", "ssize_t", "loff_t":
			p.next()
			return &Type{Kind: TypeInt, Size: 8, Name: "u64"}, nil
		}
	}
	return nil, p.errf("expected type, found %s", p.cur())
}

// parseDeclarator parses pointers, the declared name (possibly a
// function-pointer declarator `(*name)(params)`), and array suffixes.
func (p *Parser) parseDeclarator(base *Type) (string, *Type, Pos, error) {
	typ := base
	for p.at(TokStar) {
		p.next()
		for p.at(TokKwConst) {
			p.next()
		}
		typ = PtrTo(typ)
	}
	// Function pointer: ( * name ) ( params )
	if p.at(TokLParen) && p.peek(1).Kind == TokStar {
		p.next() // (
		p.next() // *
		nameTok, err := p.expect(TokIdent)
		if err != nil {
			return "", nil, Pos{}, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return "", nil, Pos{}, err
		}
		params, err := p.parseParamTypes()
		if err != nil {
			return "", nil, Pos{}, err
		}
		sig := &FuncSig{Ret: typ, Params: params}
		return nameTok.Text, PtrTo(FuncType(sig)), p.posOf(nameTok), nil
	}
	nameTok, err := p.expect(TokIdent)
	if err != nil {
		return "", nil, Pos{}, err
	}
	for p.at(TokLBracket) {
		p.next()
		n := 0
		if !p.at(TokRBracket) {
			e, err := p.parseExpr()
			if err != nil {
				return "", nil, Pos{}, err
			}
			if v, ok := p.constFold(e); ok {
				n = int(v)
			}
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return "", nil, Pos{}, err
		}
		typ = ArrayOf(typ, n)
	}
	return nameTok.Text, typ, p.posOf(nameTok), nil
}

// parseParamTypes parses `( type declarator?, ... )` returning just types.
func (p *Parser) parseParamTypes() ([]*Type, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var types []*Type
	if p.at(TokKwVoid) && p.peek(1).Kind == TokRParen {
		p.next()
	}
	for !p.at(TokRParen) {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		typ := base
		for p.at(TokStar) {
			p.next()
			typ = PtrTo(typ)
		}
		if p.at(TokIdent) {
			p.next()
		}
		types = append(types, typ)
		if p.at(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return types, nil
}

func (p *Parser) parseFuncRest(f *File, name string, ret *Type, pos Pos, static bool) error {
	if _, err := p.expect(TokLParen); err != nil {
		return err
	}
	var params []*ParamDecl
	if p.at(TokKwVoid) && p.peek(1).Kind == TokRParen {
		p.next()
	}
	for !p.at(TokRParen) {
		base, err := p.parseBaseType()
		if err != nil {
			return err
		}
		typ := base
		for p.at(TokStar) {
			p.next()
			for p.at(TokKwConst) {
				p.next()
			}
			typ = PtrTo(typ)
		}
		pd := &ParamDecl{Type: typ}
		if p.at(TokIdent) {
			t := p.next()
			pd.Name = t.Text
			pd.Pos = p.posOf(t)
			for p.at(TokLBracket) {
				p.next()
				if !p.at(TokRBracket) {
					if _, err := p.parseExpr(); err != nil {
						return err
					}
				}
				if _, err := p.expect(TokRBracket); err != nil {
					return err
				}
				pd.Type = PtrTo(typ) // array params decay to pointers
			}
		}
		params = append(params, pd)
		if p.at(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokRParen); err != nil {
		return err
	}
	fd := &FuncDecl{Name: name, Ret: ret, Params: params, Static: static, Pos: pos}
	if p.at(TokSemi) {
		p.next()
		f.Protos = append(f.Protos, fd)
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	fd.EndPos = p.posOf(p.toks.at(p.pos - 1))
	f.Funcs = append(f.Funcs, fd)
	return nil
}

// parseInitializer parses a scalar or designated-struct initializer.
func (p *Parser) parseInitializer() (Expr, error) {
	if !p.at(TokLBrace) {
		return p.parseExpr()
	}
	start := p.next() // {
	init := &StructInitExpr{exprBase: exprBase{Pos: p.posOf(start)}}
	for !p.at(TokRBrace) {
		if p.at(TokDot) {
			p.next()
			nameTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokAssign); err != nil {
				return nil, err
			}
			val, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			init.Fields = append(init.Fields, StructInitField{Name: nameTok.Text, Value: val})
		} else {
			// Positional initializer entries are accepted but unnamed.
			val, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			init.Fields = append(init.Fields, StructInitField{Value: val})
		}
		if p.at(TokComma) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return init, nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{stmtBase: stmtBase{Pos: p.posOf(lb)}}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.next() // }
	return blk, nil
}

func (p *Parser) startsType() bool {
	if p.atAny(TokKwInt, TokKwChar, TokKwLong, TokKwShort, TokKwVoid, TokKwUnsigned, TokKwSigned, TokKwStruct, TokKwConst) {
		return true
	}
	if p.at(TokIdent) {
		switch p.cur().Text {
		case "u8", "s8", "__u8", "u16", "s16", "__u16", "u32", "s32", "__u32",
			"u64", "s64", "__u64", "uint", "size_t", "ssize_t", "loff_t", "gfp_t", "dma_addr_t":
			// Only a type if followed by a declarator shape.
			nxt := p.peek(1).Kind
			return nxt == TokStar || nxt == TokIdent
		}
	}
	return false
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	pos := p.posOf(t)
	switch t.Kind {
	case TokSemi:
		p.next()
		return nil, nil
	case TokLBrace:
		return p.parseBlock()
	case TokKwIf:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		ifs := &IfStmt{stmtBase: stmtBase{Pos: pos}, Cond: cond, Then: then}
		if p.at(TokKwElse) {
			p.next()
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			ifs.Else = els
		}
		return ifs, nil
	case TokKwWhile:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: stmtBase{Pos: pos}, Cond: cond, Body: body}, nil
	case TokKwFor:
		p.next()
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		var init Stmt
		if !p.at(TokSemi) {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			init = s
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		var cond Expr
		if !p.at(TokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			cond = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		var post Stmt
		if !p.at(TokRParen) {
			s, err := p.parseSimpleStmt()
			if err != nil {
				return nil, err
			}
			post = s
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ForStmt{stmtBase: stmtBase{Pos: pos}, Init: init, Cond: cond, Post: post, Body: body}, nil
	case TokKwSwitch:
		return p.parseSwitch()
	case TokKwReturn:
		p.next()
		rs := &ReturnStmt{stmtBase: stmtBase{Pos: pos}}
		if !p.at(TokSemi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = e
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return rs, nil
	case TokKwBreak:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase: stmtBase{Pos: pos}}, nil
	case TokKwContinue:
		p.next()
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase: stmtBase{Pos: pos}}, nil
	case TokKwGoto:
		p.next()
		lbl, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &GotoStmt{stmtBase: stmtBase{Pos: pos}, Label: lbl.Text}, nil
	case TokKwDo:
		p.next()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &DoWhileStmt{stmtBase: stmtBase{Pos: pos}, Body: body, Cond: cond}, nil
	}
	// Statement label: `ident :` introduces an error-path target.
	if t.Kind == TokIdent && p.peek(1).Kind == TokColon {
		name := p.next().Text
		p.next() // :
		return &LabelStmt{stmtBase: stmtBase{Pos: pos}, Name: name}, nil
	}
	s, err := p.parseSimpleStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSimpleStmt parses a declaration, assignment, or expression statement
// (without the trailing semicolon).
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	pos := p.posOf(p.cur())
	if p.startsType() {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		name, typ, dpos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		ds := &DeclStmt{stmtBase: stmtBase{Pos: dpos}, Name: name, Type: typ}
		if p.at(TokAssign) {
			p.next()
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			ds.Init = init
		}
		return ds, nil
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.atAny(TokAssign, TokPlusEq, TokMinusEq) {
		op := p.next().Kind
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{stmtBase: stmtBase{Pos: pos}, Op: op, LHS: lhs, RHS: rhs}, nil
	}
	return &ExprStmt{stmtBase: stmtBase{Pos: pos}, X: lhs}, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	t := p.next() // switch
	pos := p.posOf(t)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{stmtBase: stmtBase{Pos: pos}, Tag: tag}
	var pendingValues []Expr
	for !p.at(TokRBrace) {
		switch {
		case p.at(TokKwCase):
			ct := p.next()
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			pendingValues = append(pendingValues, v)
			// Empty labels stack onto the next clause.
			if p.atAny(TokKwCase, TokKwDefault) {
				continue
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			sw.Cases = append(sw.Cases, &CaseClause{Pos: p.posOf(ct), Values: pendingValues, Body: body})
			pendingValues = nil
		case p.at(TokKwDefault):
			dt := p.next()
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			cc := &CaseClause{Pos: p.posOf(dt), Body: body}
			if len(pendingValues) > 0 {
				cc.Values = pendingValues
				pendingValues = nil
				// A default merged with explicit cases acts as default.
				cc.Values = nil
			}
			sw.Cases = append(sw.Cases, cc)
		default:
			return nil, p.errf("expected case/default in switch, found %s", p.cur())
		}
	}
	p.next() // }
	return sw, nil
}

// parseCaseBody reads statements until the next case/default label or the
// closing brace; a trailing `break` is consumed and dropped.
func (p *Parser) parseCaseBody() ([]Stmt, error) {
	var body []Stmt
	for !p.atAny(TokKwCase, TokKwDefault, TokRBrace) {
		if p.at(TokKwBreak) {
			p.next()
			if _, err := p.expect(TokSemi); err != nil {
				return nil, err
			}
			break
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			body = append(body, s)
		}
	}
	return body, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() (Expr, error) { return p.parseTernary() }

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.at(TokQuest) {
		return cond, nil
	}
	qt := p.next()
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{exprBase: exprBase{Pos: p.posOf(qt)}, Cond: cond, Then: then, Else: els}, nil
}

var binPrec = map[TokKind]int{
	TokOrOr:   1,
	TokAndAnd: 2,
	TokPipe:   3,
	TokCaret:  4,
	TokAmp:    5,
	TokEq:     6, TokNe: 6,
	TokLt: 7, TokGt: 7, TokLe: 7, TokGe: 7,
	TokShl: 8, TokShr: 8,
	TokPlus: 9, TokMinus: 9,
	TokStar: 10, TokSlash: 10, TokPercent: 10,
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{exprBase: exprBase{Pos: p.posOf(opTok)}, Op: opTok.Kind, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	pos := p.posOf(t)
	switch t.Kind {
	case TokMinus, TokNot, TokTilde, TokStar, TokAmp, TokInc, TokDec:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -CONST so error codes like -ENOMEM become literals.
		if t.Kind == TokMinus {
			if lit, ok := x.(*IntLit); ok {
				text := lit.Text
				if text != "" {
					text = "-" + text
				}
				return &IntLit{exprBase: exprBase{Pos: pos}, Val: -lit.Val, Text: text}, nil
			}
		}
		return &UnaryExpr{exprBase: exprBase{Pos: pos}, Op: t.Kind, X: x}, nil
	case TokKwSizeof:
		p.next()
		if p.at(TokLParen) && p.typeAfterLParen() {
			p.next()
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &SizeofExpr{exprBase: exprBase{Pos: pos}, Size: int64(typ.SizeOf())}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		_ = x
		return &SizeofExpr{exprBase: exprBase{Pos: pos}, Size: Word}, nil
	case TokLParen:
		if p.typeAfterLParen() {
			// Cast.
			p.next()
			typ, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &CastExpr{exprBase: exprBase{Pos: pos}, Type: typ, X: x}, nil
		}
	}
	return p.parsePostfix()
}

// typeAfterLParen reports whether the token after '(' starts a type name,
// disambiguating casts from parenthesized expressions.
func (p *Parser) typeAfterLParen() bool {
	n := p.peek(1)
	switch n.Kind {
	case TokKwInt, TokKwChar, TokKwLong, TokKwShort, TokKwVoid, TokKwUnsigned, TokKwSigned, TokKwStruct, TokKwConst:
		return true
	case TokIdent:
		switch n.Text {
		case "u8", "s8", "__u8", "u16", "s16", "__u16", "u32", "s32", "__u32",
			"u64", "s64", "__u64", "uint", "size_t", "ssize_t", "loff_t", "gfp_t", "dma_addr_t":
			return p.peek(2).Kind == TokStar || p.peek(2).Kind == TokRParen
		}
	}
	return false
}

// parseTypeName parses `base *...` (abstract declarator) for casts/sizeof.
func (p *Parser) parseTypeName() (*Type, error) {
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	typ := base
	for p.at(TokStar) {
		p.next()
		typ = PtrTo(typ)
	}
	return typ, nil
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		pos := p.posOf(t)
		switch t.Kind {
		case TokLParen:
			p.next()
			call := &CallExpr{exprBase: exprBase{Pos: x.ExprPos()}, Fun: x}
			for !p.at(TokRParen) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.at(TokComma) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			x = call
		case TokLBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			x = &IndexExpr{exprBase: exprBase{Pos: pos}, X: x, Index: idx}
		case TokDot:
			p.next()
			nameTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			x = &FieldExpr{exprBase: exprBase{Pos: pos}, X: x, Name: nameTok.Text}
		case TokArrow:
			p.next()
			nameTok, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			x = &FieldExpr{exprBase: exprBase{Pos: pos}, X: x, Name: nameTok.Text, Arrow: true}
		case TokInc, TokDec:
			p.next()
			x = &UnaryExpr{exprBase: exprBase{Pos: pos}, Op: t.Kind, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	pos := p.posOf(t)
	switch t.Kind {
	case TokIdent:
		p.next()
		if v, ok := p.defines[t.Text]; ok {
			return &IntLit{exprBase: exprBase{Pos: pos}, Val: v, Text: t.Text}, nil
		}
		return &Ident{exprBase: exprBase{Pos: pos}, Name: t.Text}, nil
	case TokInt, TokChar:
		p.next()
		return &IntLit{exprBase: exprBase{Pos: pos}, Val: t.Val, Text: t.Text}, nil
	case TokString:
		p.next()
		return &StrLit{exprBase: exprBase{Pos: pos}, Val: t.Text}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected token %s in expression", t)
}
