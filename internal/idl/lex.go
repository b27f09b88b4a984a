// Package idl provides the machinery shared by the IDL and PDL
// front-ends: a C-family tokenizer with source positions, a parser base
// with peek/expect helpers and positioned errors, and the declaration
// layer (Decls) the three IDL dialects parse consts, typedefs, structs
// and enums with.
package idl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TokKind classifies a token.
type TokKind uint8

// Token kinds.
const (
	EOF TokKind = iota
	Ident
	Int
	StrLit
	Punct
)

func (k TokKind) String() string {
	switch k {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Int:
		return "integer"
	case StrLit:
		return "string literal"
	case Punct:
		return "punctuation"
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// A Token is one lexical unit: its kind, where it lies in the source
// and the line it starts on. Its text, column, position and an integer's
// value come from the Lexer that scanned it (Text, Pos, Int). A token
// has no pointer and at most four fields, so the compiler keeps one in
// registers: a wider token is copied through memory, which costs a
// front end more than scanning it.
type Token struct {
	Kind TokKind
	// Off and End bound the token's source, src[Off:End]: a string
	// literal's quotes and an integer's 0x prefix included.
	Off, End int32
	Line     int32 // line of src[Off]
}

// An Error is a lexing or parsing error with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Errorf builds a positioned Error.
func Errorf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// EndPos is the position just past the last byte of src, where the
// lexer's end-of-input token lies.
func EndPos(file, src string) Pos { return offsetPos(file, src, len(src)) }

// offsetPos counts the position of src[off] from the start of src.
func offsetPos(file, src string, off int) Pos {
	line := 1 + strings.Count(src[:off], "\n")
	return Pos{File: file, Line: line, Col: off - (strings.LastIndexByte(src[:off], '\n') + 1) + 1}
}

// A Lexer tokenizes IDL/PDL source. One loop, driven by one byte-class
// table, skips white space and comments and scans the token. A position
// is derived from the byte offset: newlines are counted only where one
// can occur (white space, comments and string literals), and a column
// is the distance from the start of the line, in bytes. Offsets are
// 32-bit: a source of 2 GiB or more does not lex.
type Lexer struct {
	src, file string
	off       int
	line      int // line number at off
	lineStart int // offset of that line's first byte
	tok       Token
	peeked    bool // tok is the next token, lexed but not consumed
}

// NewLexer returns a Lexer over src; file is used in positions.
func NewLexer(file, src string) Lexer {
	return Lexer{src: src, file: file, line: 1}
}

// Byte classes, which select what the lexer does with a byte.
const (
	cBad     uint8 = iota // starts no token
	cSpace                // blank other than a newline
	cNewline              // '\n'
	cIdent                // starts and continues an identifier
	cDigit                // starts a number, continues an identifier
	cQuote                // opens a string literal
	cPunct                // a one-byte punctuation token
	cColon                // ':', or the start of "::"
	cSlash                // '/', or the start of a comment
	cPercent              // an XDR pass-through line (%#include ...), skipped
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cIdent, cIdent
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	for _, c := range "(){}[]<>;,=*-+." {
		t[c] = cPunct
	}
	t['_'] = cIdent
	t[' '], t['\t'], t['\r'], t['\n'] = cSpace, cSpace, cSpace, cNewline
	t['"'], t[':'], t['/'], t['%'] = cQuote, cColon, cSlash, cPercent
	return t
}()

// posAt is the position of src[off], which must lie on the current line.
func (l *Lexer) posAt(off int) Pos {
	return Pos{File: l.file, Line: l.line, Col: off - l.lineStart + 1}
}

// newline records that src[off] is a newline.
func (l *Lexer) newline(off int) {
	l.line++
	l.lineStart = off + 1
}

// token is the token of kind k at src[off:end], which starts on the
// current line.
func (l *Lexer) token(k TokKind, off, end int) Token {
	return Token{Kind: k, Off: int32(off), End: int32(end), Line: int32(l.line)}
}

// Pos is t's position. A token on the line the lexer is on takes its
// column from the lexer; one on an earlier line counts back to the start
// of its line.
func (l *Lexer) Pos(t Token) Pos {
	if int(t.Line) == l.line {
		return l.posAt(int(t.Off))
	}
	lineStart := strings.LastIndexByte(l.src[:t.Off], '\n') + 1
	return Pos{File: l.file, Line: int(t.Line), Col: int(t.Off) - lineStart + 1}
}

// Int is the value of an Int token.
func (l *Lexer) Int(t Token) int64 {
	v, _ := intValue(l.src[t.Off:t.End])
	return v
}

// Text is t's text: an identifier's name, a punctuation token, an
// integer as written, or a string literal's body with its escapes
// resolved. Only a string literal with escapes allocates.
func (l *Lexer) Text(t Token) string {
	text := l.src[t.Off:t.End]
	if t.Kind != StrLit {
		return text
	}
	body := text[1 : len(text)-1]
	if strings.IndexByte(body, '\\') < 0 {
		return body
	}
	esc := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '\\' { // the lexer admitted only these escapes
			i++
			switch c = body[i]; c {
			case 'n':
				c = '\n'
			case 't':
				c = '\t'
			}
		}
		esc = append(esc, c)
	}
	return string(esc)
}

// Describe renders t for a message: "end of input", an integer's
// value, or its text quoted.
func (l *Lexer) Describe(t Token) string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case Int:
		return strconv.FormatInt(l.Int(t), 10)
	}
	return strconv.Quote(l.Text(t))
}

// ErrorfAt returns an error positioned at t.
func (l *Lexer) ErrorfAt(t Token, format string, args ...any) error {
	return Errorf(l.Pos(t), format, args...)
}

// peek returns the next token, lexing it into the lexer's lookahead
// slot if it is not there yet. The token stays there until consumed.
func (l *Lexer) peek() (*Token, error) {
	if !l.peeked {
		t, err := l.lex()
		if err != nil {
			return nil, err
		}
		l.tok, l.peeked = t, true
	}
	return &l.tok, nil
}

// Next returns the next token, consuming it.
func (l *Lexer) Next() (Token, error) {
	if l.peeked {
		l.peeked = false
		return l.tok, nil
	}
	return l.lex()
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	t, err := l.peek()
	if err != nil {
		return Token{}, err
	}
	return *t, nil
}

// lex skips white space and comments and scans the next token. A token
// is returned by value, which the register ABI passes in registers.
func (l *Lexer) lex() (Token, error) {
	src, i := l.src, l.off
	if len(src) > math.MaxInt32 {
		return Token{}, Errorf(Pos{File: l.file, Line: 1, Col: 1}, "source of %d bytes is too large", len(src))
	}
	for i < len(src) {
		c := src[i]
		switch byteClass[c] {
		case cSpace:
			for i++; i < len(src) && byteClass[src[i]] == cSpace; i++ {
			}
			continue
		case cNewline:
			l.newline(i)
			i++
			continue
		case cIdent:
			end := i + 1
			for end < len(src) && (byteClass[src[end]] == cIdent || byteClass[src[end]] == cDigit) {
				end++
			}
			l.off = end
			return l.token(Ident, i, end), nil
		case cDigit:
			return l.lexInt(i)
		case cQuote:
			return l.lexString(i)
		case cColon:
			if i+1 < len(src) && src[i+1] == ':' {
				l.off = i + 2
				return l.token(Punct, i, i+2), nil
			}
		case cSlash:
			if i+1 < len(src) && src[i+1] == '/' {
				i = lineEnd(src, i)
				continue
			}
			if i+1 < len(src) && src[i+1] == '*' {
				n := strings.Index(src[i+2:], "*/")
				if n < 0 {
					l.off = i
					return Token{}, Errorf(l.posAt(i), "unterminated block comment")
				}
				body := src[i+2 : i+2+n]
				if k := strings.LastIndexByte(body, '\n'); k >= 0 {
					l.line += strings.Count(body, "\n")
					l.lineStart = i + 2 + k + 1
				}
				i += 2 + n + 2
				continue
			}
		case cPercent:
			i = lineEnd(src, i)
			continue
		case cBad:
			l.off = i
			return Token{}, Errorf(l.posAt(i), "unexpected character %q", c)
		}
		l.off = i + 1
		return l.token(Punct, i, i+1), nil
	}
	l.off = i
	return l.token(EOF, i, i), nil
}

// lineEnd is the offset of the newline that ends the line src[i] is
// on, or len(src).
func lineEnd(src string, i int) int {
	if n := strings.IndexByte(src[i:], '\n'); n >= 0 {
		return i + n
	}
	return len(src)
}

// lexInt scans the integer literal at src[start].
func (l *Lexer) lexInt(start int) (Token, error) {
	src, end := l.src, start+1
	hex := src[start] == '0' && end < len(src) && (src[end] == 'x' || src[end] == 'X')
	if hex {
		end++
	}
	for end < len(src) && (byteClass[src[end]] == cDigit || hex && isHexLetter(src[end])) {
		end++
	}
	l.off = end
	if _, ok := intValue(src[start:end]); !ok {
		digits := src[start:end]
		if hex {
			digits = digits[2:]
		}
		return Token{}, Errorf(l.posAt(start), "bad integer literal %q", digits)
	}
	return l.token(Int, start, end), nil
}

// intValue parses an integer literal. As in C, CORBA IDL and XDR, a
// leading 0x means hexadecimal and any other leading 0 octal.
func intValue(text string) (int64, bool) {
	base := 10
	if len(text) > 1 && text[0] == '0' {
		if base = 8; text[1] == 'x' || text[1] == 'X' {
			text, base = text[2:], 16
		}
	}
	v, err := strconv.ParseInt(text, base, 64)
	return v, err == nil
}

func isHexLetter(c byte) bool { return c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' }

// lexString scans the string literal that opens at src[start]. It may
// span lines; Text resolves its escapes.
func (l *Lexer) lexString(start int) (Token, error) {
	src := l.src
	t := l.token(StrLit, start, start)
	for i := start + 1; ; {
		if i >= len(src) {
			l.off = i
			return Token{}, l.ErrorfAt(t, "unterminated string literal")
		}
		switch c := src[i]; {
		case c == '"':
			l.off = i + 1
			t.End = int32(i + 1)
			return t, nil
		case c == '\\' && i+1 < len(src):
			switch src[i+1] {
			case 'n', 't', '\\', '"':
			default:
				l.off = i + 1
				return Token{}, Errorf(l.posAt(i+1), "unknown escape \\%c", src[i+1])
			}
			i += 2
		case c == '\n':
			l.newline(i)
			i++
		default:
			i++
		}
	}
}

// A Parser wraps a Lexer with the expect/accept helpers every
// front-end shares. The helpers test the lookahead token where it lies
// and copy out only what they return.
type Parser struct {
	Lexer
}

// NewParser returns a Parser over the given source.
func NewParser(file, src string) Parser {
	return Parser{NewLexer(file, src)}
}

// is reports whether t is the token text of the given kind. It tests
// the first byte before the rest: most tests fail there, and comparing
// two strings of one length is a call.
func (p *Parser) is(t Token, kind TokKind, text string) bool {
	s := p.src[t.Off:t.End]
	return t.Kind == kind && len(s) == len(text) && s != "" && s[0] == text[0] && (len(s) == 1 || s == text)
}

// AtEOF reports whether the input is exhausted.
func (p *Parser) AtEOF() (bool, error) {
	t, err := p.peek()
	return err != nil || t.Kind == EOF, err
}

// ErrorfAtNext returns an error positioned at the next token, or the
// lexer's own error if the next token does not lex.
func (p *Parser) ErrorfAtNext(format string, args ...any) error {
	t, err := p.peek()
	if err != nil {
		return err
	}
	return p.ErrorfAt(*t, format, args...)
}

// Expect consumes the next token and fails unless it is the given
// punctuation.
func (p *Parser) Expect(punct string) error {
	t, err := p.Next()
	if err != nil {
		return err
	}
	if !p.is(t, Punct, punct) {
		return p.ErrorfAt(t, "expected %q, found %s", punct, p.Describe(t))
	}
	return nil
}

// ExpectIdent consumes the next token and fails unless it is an
// identifier, returning its text and the token, for a position.
func (p *Parser) ExpectIdent() (string, Token, error) {
	t, err := p.Next()
	if err != nil {
		return "", t, err
	}
	if t.Kind != Ident {
		return "", t, p.ErrorfAt(t, "expected identifier, found %s", p.Describe(t))
	}
	return p.src[t.Off:t.End], t, nil
}

// ExpectKeyword consumes the next token and fails unless it is the
// given identifier.
func (p *Parser) ExpectKeyword(kw string) error {
	t, err := p.Next()
	if err != nil {
		return err
	}
	if !p.is(t, Ident, kw) {
		return p.ErrorfAt(t, "expected %q, found %s", kw, p.Describe(t))
	}
	return nil
}

// ExpectInt consumes the next token and fails unless it is an
// integer literal, returning its value.
func (p *Parser) ExpectInt() (int64, error) {
	t, err := p.Next()
	if err != nil {
		return 0, err
	}
	if t.Kind != Int {
		return 0, p.ErrorfAt(t, "expected integer, found %s", p.Describe(t))
	}
	return p.Int(t), nil
}

// Accept consumes the next token iff it is the given punctuation,
// reporting whether it did.
func (p *Parser) Accept(punct string) (bool, error) {
	return p.accept(Punct, punct)
}

// AcceptKeyword consumes the next token iff it is the given
// identifier, reporting whether it did.
func (p *Parser) AcceptKeyword(kw string) (bool, error) {
	return p.accept(Ident, kw)
}

func (p *Parser) accept(kind TokKind, text string) (bool, error) {
	t, err := p.peek()
	if err != nil {
		return false, err
	}
	if p.is(*t, kind, text) {
		p.peeked = false
		return true, nil
	}
	return false, nil
}
