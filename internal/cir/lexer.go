package cir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// LexError describes a lexical error with position information.
type LexError struct {
	Msg  string
	Line int
	Col  int
}

// Error implements the error interface.
func (e *LexError) Error() string {
	return fmt.Sprintf("lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer converts kernel-C source text into tokens. It handles //- and
// /**/-style comments and #define NAME <int> macro definitions (recorded
// in Defines, and also emitted as TokHashDefine tokens so the parser can
// register them).
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	// start is the source offset of the last token Next returned.
	start int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the entire input. On error it returns the tokens produced
// so far along with the error.
func Lex(src string) ([]Token, error) {
	var ts tokens
	err := ts.lex(nil, src)
	toks := make([]Token, len(ts.toks))
	for i := range toks {
		toks[i] = ts.at(i)
	}
	return toks, err
}

// tok is a token as ParseFile's reused buffer holds it. It has no
// pointers: its text is src[off:off+n] when the source spells it, and
// texts[-n-1] otherwise (decoded string and char literals, #define
// bodies). So the garbage collector never scans a token buffer, and a
// pooled buffer keeps no source file alive.
type tok struct {
	kind      TokKind
	off, n    int
	val       int64
	line, col int
}

// tokens is one file's token buffer plus the texts the source does not
// spell.
type tokens struct {
	src   string
	toks  []tok
	texts []string
}

// tokenBufs recycles ParseFile's token buffers: the tokens are garbage
// once the file is parsed, and a fresh buffer per file was the largest
// allocation of a cold run. sync.Pool drops idle buffers at GC, so a
// long-running process does not keep them.
var tokenBufs = sync.Pool{New: func() any { return new([]tok) }}

// lex tokenizes the whole of src into toks[:0], growing it as needed; on
// error ts.toks holds the tokens before it. ParseFile lexes before it
// parses, so a lex error wins over a parse error earlier in the file.
func (ts *tokens) lex(toks []tok, src string) error {
	ts.src = src
	// Kernel C averages about 4.4 source bytes per token.
	ts.toks = slices.Grow(toks[:0], len(src)/4+1)
	l := NewLexer(src)
	for {
		t, err := l.Next()
		if err != nil {
			return err
		}
		k := tok{kind: t.Kind, off: l.start, n: len(t.Text), val: t.Val, line: t.Line, col: t.Col}
		if t.Text != "" && (l.start+len(t.Text) > len(src) || src[l.start:l.start+len(t.Text)] != t.Text) {
			ts.texts = append(ts.texts, t.Text)
			k.n = -len(ts.texts)
		}
		ts.toks = append(ts.toks, k)
		if t.Kind == TokEOF {
			return nil
		}
	}
}

// at returns token i in its public form.
func (ts *tokens) at(i int) Token {
	k := &ts.toks[i]
	t := Token{Kind: k.kind, Val: k.val, Line: k.line, Col: k.col}
	if k.n >= 0 {
		t.Text = ts.src[k.off : k.off+k.n]
	} else {
		t.Text = ts.texts[-k.n-1]
	}
	return t
}

func (l *Lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) errf(format string, args ...interface{}) error {
	return &LexError{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.col}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipSpaceAndComments consumes whitespace, line continuations, and comments.
func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '\\' && l.peekByte2() == '\n':
			l.advance()
			l.advance()
		case c == '/' && l.peekByte2() == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	l.start = l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}
	startLine, startCol := l.line, l.col
	mk := func(k TokKind, text string) Token {
		return Token{Kind: k, Text: text, Line: startLine, Col: startCol}
	}
	c := l.peekByte()

	// Preprocessor: only #define NAME value and #include (ignored) supported.
	if c == '#' {
		start := l.pos
		for l.pos < len(l.src) && l.peekByte() != '\n' {
			l.advance()
		}
		directive := l.src[start:l.pos]
		trimmed := strings.TrimSpace(strings.TrimPrefix(directive, "#"))
		if strings.HasPrefix(trimmed, "define") {
			return Token{Kind: TokHashDefine, Text: strings.TrimSpace(strings.TrimPrefix(trimmed, "define")), Line: startLine, Col: startCol}, nil
		}
		// #include and other directives are skipped.
		return l.Next()
	}

	if isIdentStart(c) {
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if kw, ok := keywords[text]; ok {
			return mk(kw, text), nil
		}
		return mk(TokIdent, text), nil
	}

	if isDigit(c) {
		start := l.pos
		base := 10
		if c == '0' && (l.peekByte2() == 'x' || l.peekByte2() == 'X') {
			base = 16
			l.advance()
			l.advance()
			for l.pos < len(l.src) && isHexDigit(l.peekByte()) {
				l.advance()
			}
		} else {
			for l.pos < len(l.src) && isDigit(l.peekByte()) {
				l.advance()
			}
		}
		text := l.src[start:l.pos]
		// Integer suffixes (U, L, UL, ULL …) are accepted and ignored.
		for l.pos < len(l.src) && (l.peekByte() == 'u' || l.peekByte() == 'U' || l.peekByte() == 'l' || l.peekByte() == 'L') {
			l.advance()
		}
		numText := text
		if base == 16 {
			numText = text[2:]
		}
		v, err := strconv.ParseInt(numText, base, 64)
		if err != nil {
			// Overflow of int64: saturate rather than fail; kernel constants
			// like 0xffffffff fit, but be permissive.
			u, uerr := strconv.ParseUint(numText, base, 64)
			if uerr != nil {
				return Token{}, l.errf("bad integer literal %q", text)
			}
			v = int64(u)
		}
		t := mk(TokInt, text)
		t.Val = v
		return t, nil
	}

	if c == '"' {
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated string literal")
			}
			ch := l.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' && l.pos < len(l.src) {
				esc := l.advance()
				switch esc {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '0':
					sb.WriteByte(0)
				default:
					sb.WriteByte(esc)
				}
				continue
			}
			sb.WriteByte(ch)
		}
		return mk(TokString, sb.String()), nil
	}

	if c == '\'' {
		l.advance()
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated char literal")
		}
		ch := l.advance()
		if ch == '\\' && l.pos < len(l.src) {
			esc := l.advance()
			switch esc {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case '0':
				ch = 0
			default:
				ch = esc
			}
		}
		if l.pos >= len(l.src) || l.advance() != '\'' {
			return Token{}, l.errf("unterminated char literal")
		}
		t := mk(TokChar, string(ch))
		t.Val = int64(ch)
		return t, nil
	}

	// Operators and punctuation.
	two := func(k TokKind) (Token, error) {
		l.advance()
		l.advance()
		return mk(k, ""), nil
	}
	one := func(k TokKind) (Token, error) {
		l.advance()
		return mk(k, ""), nil
	}
	d := l.peekByte2()
	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '[':
		return one(TokLBracket)
	case ']':
		return one(TokRBracket)
	case ';':
		return one(TokSemi)
	case ',':
		return one(TokComma)
	case ':':
		return one(TokColon)
	case '?':
		return one(TokQuest)
	case '.':
		return one(TokDot)
	case '~':
		return one(TokTilde)
	case '+':
		if d == '+' {
			return two(TokInc)
		}
		if d == '=' {
			return two(TokPlusEq)
		}
		return one(TokPlus)
	case '-':
		if d == '>' {
			return two(TokArrow)
		}
		if d == '-' {
			return two(TokDec)
		}
		if d == '=' {
			return two(TokMinusEq)
		}
		return one(TokMinus)
	case '*':
		return one(TokStar)
	case '/':
		return one(TokSlash)
	case '%':
		return one(TokPercent)
	case '&':
		if d == '&' {
			return two(TokAndAnd)
		}
		return one(TokAmp)
	case '|':
		if d == '|' {
			return two(TokOrOr)
		}
		return one(TokPipe)
	case '^':
		return one(TokCaret)
	case '!':
		if d == '=' {
			return two(TokNe)
		}
		return one(TokNot)
	case '=':
		if d == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '<':
		if d == '<' {
			return two(TokShl)
		}
		if d == '=' {
			return two(TokLe)
		}
		return one(TokLt)
	case '>':
		if d == '>' {
			return two(TokShr)
		}
		if d == '=' {
			return two(TokGe)
		}
		return one(TokGt)
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
