package idl

import (
	"errors"
	"strings"
	"testing"
)

func lexAll(t *testing.T, src string) []Token {
	t.Helper()
	l := NewLexer("test.idl", src)
	var toks []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex error: %v", err)
		}
		if tok.Kind == EOF {
			return toks
		}
		toks = append(toks, tok)
	}
}

func TestLexBasics(t *testing.T) {
	toks := lexAll(t, `interface SysLog { void write_msg(in string msg); };`)
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := []string{"interface", "SysLog", "{", "void", "write_msg",
		"(", "in", "string", "msg", ")", ";", "}", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
a /* block
comment */ b
% xdr passthrough line is skipped
c`
	toks := lexAll(t, src)
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" || toks[2].Text != "c" {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks := lexAll(t, "a\n  bb")
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("bb at %v", toks[1].Pos)
	}
}

func TestLexIntegers(t *testing.T) {
	// A leading 0 means octal, as in C, CORBA IDL (section 7.2.6.1)
	// and XDR (RFC 4506).
	toks := lexAll(t, "42 0x1F 0 010 0777")
	if toks[0].Int != 42 || toks[1].Int != 31 || toks[2].Int != 0 || toks[3].Int != 8 || toks[4].Int != 511 {
		t.Fatalf("ints = %d %d %d %d %d", toks[0].Int, toks[1].Int, toks[2].Int, toks[3].Int, toks[4].Int)
	}
}

func TestLexStrings(t *testing.T) {
	toks := lexAll(t, `"hello \"there\"\n"`)
	if toks[0].Kind != StrLit || toks[0].Text != "hello \"there\"\n" {
		t.Fatalf("string = %q", toks[0].Text)
	}
}

func TestLexMultiPunct(t *testing.T) {
	// "::" is the only multi-character token: ">>" closes two nested
	// sequences, and no front end has a shift operator.
	toks := lexAll(t, "a::b < >> <<")
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := "a :: b < > > < <"
	if strings.Join(texts, " ") != want {
		t.Fatalf("tokens = %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"/* unterminated", `"unterminated`, "#", `"\q"`, "08"} {
		l := NewLexer("t", src)
		var err error
		for err == nil {
			var tok Token
			tok, err = l.Next()
			if err == nil && tok.Kind == EOF {
				t.Errorf("src %q: expected error, got clean EOF", src)
				break
			}
		}
	}
}

func TestParserHelpers(t *testing.T) {
	p := NewParser("t", "foo ( 7 ) bar")
	name, _, err := p.ExpectIdent()
	if err != nil || name != "foo" {
		t.Fatalf("ExpectIdent = %q, %v", name, err)
	}
	if err := p.Expect("("); err != nil {
		t.Fatal(err)
	}
	n, err := p.ExpectInt()
	if err != nil || n != 7 {
		t.Fatalf("ExpectInt = %d, %v", n, err)
	}
	ok, err := p.Accept(")")
	if err != nil || !ok {
		t.Fatalf("Accept = %v, %v", ok, err)
	}
	ok, err = p.AcceptKeyword("baz")
	if err != nil || ok {
		t.Fatalf("AcceptKeyword(baz) = %v, %v", ok, err)
	}
	if err := p.ExpectKeyword("bar"); err != nil {
		t.Fatal(err)
	}
	eof, err := p.AtEOF()
	if err != nil || !eof {
		t.Fatalf("AtEOF = %v, %v", eof, err)
	}
}

func TestParserErrorsHavePositions(t *testing.T) {
	p := NewParser("f.idl", "\n\n  oops")
	err := p.Expect(";")
	if err == nil || !strings.Contains(err.Error(), "f.idl:3:3") {
		t.Fatalf("err = %v, want position f.idl:3:3", err)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	p := NewParser("t", "x y")
	t1, _ := p.Peek()
	t2, _ := p.Peek()
	if t1.Text != "x" || t2.Text != "x" {
		t.Fatal("peek consumed input")
	}
	t3, _ := p.Next()
	if t3.Text != "x" {
		t.Fatal("next after peek returned wrong token")
	}
}

// naivePos counts the line and column of src[off] byte by byte: every
// byte but a newline is one column, tabs and carriage returns included.
func naivePos(src string, off int) (line, col int) {
	line, col = 1, 1
	for i := 0; i < off; i++ {
		if src[i] == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
	}
	return line, col
}

// checkLex lexes all of src, checking every token's position against
// naivePos at the token's offset and, if lexing fails, that the error
// is an *Error positioned inside the source. Every other token is
// peeked first, so both paths to a token are covered.
func checkLex(t *testing.T, src string) {
	t.Helper()
	l := NewLexer("f", src)
	for n := 0; n <= len(src); n++ {
		err := l.skipSpaceAndComments()
		off := l.off
		var tok Token
		if err == nil && n%2 == 1 {
			_, err = l.Peek()
		}
		if err == nil {
			tok, err = l.Next()
		}
		if err != nil {
			var e *Error
			if !errors.As(err, &e) {
				t.Fatalf("%q: error %v is a %T, want *idl.Error", src, err, err)
			}
			lines := strings.Split(src, "\n")
			if e.Pos.File != "f" || e.Pos.Line < 1 || e.Pos.Line > len(lines) || e.Pos.Col < 1 || e.Pos.Col > len(lines[e.Pos.Line-1])+1 {
				t.Fatalf("%q: error %v positioned outside the source", src, err)
			}
			return
		}
		if line, col := naivePos(src, off); tok.Pos != (Pos{"f", line, col}) {
			t.Fatalf("%q: token %s at offset %d has position %v, want %d:%d", src, tok, off, tok.Pos, line, col)
		}
		if tok.Kind == EOF {
			return
		}
	}
	t.Fatalf("%q: more tokens than bytes", src)
}

var lexCorpus = []string{
	"interface A {\r\n\tvoid f(in long x);\r\n};\r\n",
	"a\tb\t\tc\n\t\td",
	"x /* block\ncomment\r\nspanning */ y /**/ z /* a */\nw",
	"%#include <rpc/rpc.h>\n% pass-through\nprogram P { } = 1;",
	"// line comment\r\n// another\nlast",
	"\"one\\n\\t\\\\\\\"two\" after \"multi\nline\nstring\" end",
	"sequence<sequence<octet>> a::b 010 0x1F 0 ;,:=*-+/.",
	"\n\n\n   \"unterminated\nstring",
	"a\n  /* unterminated\n comment",
	"ok \"bad \\q escape\"",
	"\r\n\"esc at line 2 \\\n\"",
	"a\n#",
	"x\n  08",
	"",
	"\n",
}

func TestLexPositionsMatchNaiveCount(t *testing.T) {
	for _, src := range lexCorpus {
		checkLex(t, src)
	}
}

// FuzzLex: no input panics the lexer or runs it on forever, every
// token's position agrees with a naive count, and every error is an
// *Error with a position inside the source.
func FuzzLex(f *testing.F) {
	for _, src := range lexCorpus {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLex(t, src)
	})
}
