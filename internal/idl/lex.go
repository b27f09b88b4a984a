// Package idl provides the lexical machinery shared by the IDL and
// PDL front-ends: a C-family tokenizer with source positions, plus a
// parser base with peek/expect helpers and positioned errors.
package idl

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind classifies a token.
type TokKind int

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

// A Token is one lexical unit.
type Token struct {
	Kind TokKind
	Text string // identifier name, punctuation text, or string body
	Int  int64  // value for Int tokens
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case EOF:
		return "end of input"
	case Int:
		return fmt.Sprintf("%d", t.Int)
	case StrLit:
		return strconv.Quote(t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
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

// A Lexer tokenizes IDL/PDL source. An identifier, number or
// punctuation token's text is a slice of the source, as is a string
// literal's unless it has escapes. A position is derived from the byte
// offset: newlines are counted only where one can occur (white space,
// comments and string literals), and a column is the distance from the
// start of the line, in bytes.
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

// posAt is the position of src[off], which must lie on the current line.
func (l *Lexer) posAt(off int) Pos {
	return Pos{File: l.file, Line: l.line, Col: off - l.lineStart + 1}
}

// newline records that src[off] is a newline.
func (l *Lexer) newline(off int) {
	l.line++
	l.lineStart = off + 1
}

func (l *Lexer) skipSpaceAndComments() error {
	src := l.src
	for l.off < len(src) {
		c := src[l.off]
		switch {
		case c == '\n':
			l.newline(l.off)
			l.off++
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
		case c == '%' || c == '/' && l.off+1 < len(src) && src[l.off+1] == '/':
			// A line comment, or an XDR pass-through line
			// (%#include ...): skip to the newline.
			if i := strings.IndexByte(src[l.off:], '\n'); i >= 0 {
				l.off += i
			} else {
				l.off = len(src)
			}
		case c == '/' && l.off+1 < len(src) && src[l.off+1] == '*':
			body := l.off + 2
			n := strings.Index(src[body:], "*/")
			if n < 0 {
				return Errorf(l.posAt(l.off), "unterminated block comment")
			}
			for i := body; i < body+n; i++ {
				if src[i] == '\n' {
					l.newline(i)
				}
			}
			l.off = body + n + 2
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// peek returns the next token, lexing it into the lexer's lookahead
// slot if it is not there yet. The token stays there until consumed.
func (l *Lexer) peek() (*Token, error) {
	if !l.peeked {
		if err := l.lex(&l.tok); err != nil {
			return nil, err
		}
		l.peeked = true
	}
	return &l.tok, nil
}

// next consumes the next token and returns it in place; it stays valid
// until the lexer is next used.
func (l *Lexer) next() (*Token, error) {
	t, err := l.peek()
	l.peeked = false
	return t, err
}

// Next returns the next token, consuming it.
func (l *Lexer) Next() (Token, error) {
	t, err := l.next()
	if err != nil {
		return Token{}, err
	}
	return *t, nil
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	t, err := l.peek()
	if err != nil {
		return Token{}, err
	}
	return *t, nil
}

// lex scans the next token into t; t is written only on success.
func (l *Lexer) lex(t *Token) error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	src, start := l.src, l.off
	pos := l.posAt(start)
	if start >= len(src) {
		*t = Token{Kind: EOF, Pos: pos}
		return nil
	}
	c := src[start]
	switch {
	case isIdentStart(c):
		end := start + 1
		for end < len(src) && isIdentCont(src[end]) {
			end++
		}
		l.off = end
		*t = Token{Kind: Ident, Text: src[start:end], Pos: pos}
		return nil
	case isDigit(c):
		return l.lexInt(t, pos)
	case c == '"':
		return l.lexString(t, pos)
	case c == ':' && start+1 < len(src) && src[start+1] == ':':
		l.off = start + 2
	case strings.IndexByte("(){}[]<>;,:=*-+/.", c) >= 0:
		l.off = start + 1
	default:
		return Errorf(pos, "unexpected character %q", c)
	}
	*t = Token{Kind: Punct, Text: src[start:l.off], Pos: pos}
	return nil
}

// lexInt scans an integer literal. As in C, CORBA IDL and XDR, a
// leading 0x means hexadecimal and any other leading 0 octal.
func (l *Lexer) lexInt(t *Token, pos Pos) error {
	src, begin := l.src, l.off
	end, base := begin, 10
	if src[begin] == '0' && begin+1 < len(src) && (src[begin+1] == 'x' || src[begin+1] == 'X') {
		begin += 2
		end, base = begin, 16
		for end < len(src) && isHexDigit(src[end]) {
			end++
		}
	} else {
		for end < len(src) && isDigit(src[end]) {
			end++
		}
		if src[begin] == '0' && end > begin+1 {
			base = 8
		}
	}
	l.off = end
	text := src[begin:end]
	v, err := strconv.ParseInt(text, base, 64)
	if err != nil {
		return Errorf(pos, "bad integer literal %q", text)
	}
	*t = Token{Kind: Int, Int: v, Text: text, Pos: pos}
	return nil
}

// lexString scans a string literal, which may span lines. Its text is
// a slice of the source unless an escape forces a copy.
func (l *Lexer) lexString(t *Token, pos Pos) error {
	src := l.src
	body := l.off + 1
	var esc []byte // the unescaped text so far, once there is an escape
	from := body   // start of the source run not yet in esc
	for i := body; ; {
		if i >= len(src) {
			l.off = i
			return Errorf(pos, "unterminated string literal")
		}
		switch ch := src[i]; {
		case ch == '"':
			text := src[body:i]
			if esc != nil {
				text = string(append(esc, src[from:i]...))
			}
			l.off = i + 1
			*t = Token{Kind: StrLit, Text: text, Pos: pos}
			return nil
		case ch == '\\' && i+1 < len(src):
			r := src[i+1]
			switch r {
			case 'n':
				r = '\n'
			case 't':
				r = '\t'
			case '\\', '"':
			default:
				l.off = i + 1
				return Errorf(l.posAt(i+1), "unknown escape \\%c", r)
			}
			esc = append(append(esc, src[from:i]...), r)
			i += 2
			from = i
		case ch == '\n':
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
	lex Lexer
}

// NewParser returns a Parser over the given source.
func NewParser(file, src string) Parser {
	return Parser{lex: NewLexer(file, src)}
}

// Next consumes and returns the next token.
func (p *Parser) Next() (Token, error) { return p.lex.Next() }

// Peek returns the next token without consuming it.
func (p *Parser) Peek() (Token, error) { return p.lex.Peek() }

// AtEOF reports whether the input is exhausted.
func (p *Parser) AtEOF() (bool, error) {
	t, err := p.lex.peek()
	return err != nil || t.Kind == EOF, err
}

// ErrorfAtNext returns an error positioned at the next token, or the
// lexer's own error if the next token does not lex.
func (p *Parser) ErrorfAtNext(format string, args ...any) error {
	t, err := p.lex.peek()
	if err != nil {
		return err
	}
	return Errorf(t.Pos, format, args...)
}

// Expect consumes the next token and fails unless it is the given
// punctuation.
func (p *Parser) Expect(punct string) error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	if t.Kind != Punct || t.Text != punct {
		return Errorf(t.Pos, "expected %q, found %s", punct, *t)
	}
	return nil
}

// ExpectIdent consumes the next token and fails unless it is an
// identifier, returning its text.
func (p *Parser) ExpectIdent() (string, Pos, error) {
	t, err := p.lex.next()
	if err != nil {
		return "", Pos{}, err
	}
	if t.Kind != Ident {
		return "", t.Pos, Errorf(t.Pos, "expected identifier, found %s", *t)
	}
	return t.Text, t.Pos, nil
}

// ExpectKeyword consumes the next token and fails unless it is the
// given identifier.
func (p *Parser) ExpectKeyword(kw string) error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	if t.Kind != Ident || t.Text != kw {
		return Errorf(t.Pos, "expected %q, found %s", kw, *t)
	}
	return nil
}

// ExpectInt consumes the next token and fails unless it is an
// integer literal, returning its value.
func (p *Parser) ExpectInt() (int64, error) {
	t, err := p.lex.next()
	if err != nil {
		return 0, err
	}
	if t.Kind != Int {
		return 0, Errorf(t.Pos, "expected integer, found %s", *t)
	}
	return t.Int, nil
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
	t, err := p.lex.peek()
	if err != nil {
		return false, err
	}
	if t.Kind == kind && t.Text == text {
		p.lex.peeked = false
		return true, nil
	}
	return false, nil
}
