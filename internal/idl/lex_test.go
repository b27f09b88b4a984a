package idl

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func lexAll(t *testing.T, src string) (*Lexer, []Token) {
	t.Helper()
	l := NewLexer("test.idl", src)
	var toks []Token
	for {
		tok, err := l.Next()
		if err != nil {
			t.Fatalf("lex error: %v", err)
		}
		if tok.Kind == EOF {
			return &l, toks
		}
		toks = append(toks, tok)
	}
}

func texts(l *Lexer, toks []Token) string {
	var texts []string
	for _, tok := range toks {
		texts = append(texts, l.Text(tok))
	}
	return strings.Join(texts, " ")
}

func TestLexBasics(t *testing.T) {
	l, toks := lexAll(t, `interface SysLog { void write_msg(in string msg); };`)
	want := []string{"interface", "SysLog", "{", "void", "write_msg",
		"(", "in", "string", "msg", ")", ";", "}", ";"}
	if got := texts(l, toks); got != strings.Join(want, " ") {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
a /* block
comment */ b
% xdr passthrough line is skipped
c`
	l, toks := lexAll(t, src)
	if got := texts(l, toks); got != "a b c" {
		t.Fatalf("tokens = %v", got)
	}
}

func TestLexPositions(t *testing.T) {
	l, toks := lexAll(t, "a\n  bb")
	if p := l.Pos(toks[0]); p.Line != 1 || p.Col != 1 {
		t.Errorf("a at %v", p)
	}
	if p := l.Pos(toks[1]); p.Line != 2 || p.Col != 3 {
		t.Errorf("bb at %v", p)
	}
}

func TestLexIntegers(t *testing.T) {
	// A leading 0 means octal, as in C, CORBA IDL (section 7.2.6.1)
	// and XDR (RFC 4506).
	l, toks := lexAll(t, "42 0x1F 0 010 0777")
	if l.Int(toks[0]) != 42 || l.Int(toks[1]) != 31 || l.Int(toks[2]) != 0 || l.Int(toks[3]) != 8 || l.Int(toks[4]) != 511 {
		t.Fatalf("ints = %d %d %d %d %d", l.Int(toks[0]), l.Int(toks[1]), l.Int(toks[2]), l.Int(toks[3]), l.Int(toks[4]))
	}
}

func TestLexStrings(t *testing.T) {
	l, toks := lexAll(t, `"hello \"there\"\n" "plain"`)
	if toks[0].Kind != StrLit || l.Text(toks[0]) != "hello \"there\"\n" {
		t.Fatalf("string = %q", l.Text(toks[0]))
	}
	if toks[1].Kind != StrLit || l.Text(toks[1]) != "plain" {
		t.Fatalf("string = %q", l.Text(toks[1]))
	}
}

func TestLexMultiPunct(t *testing.T) {
	// "::" is the only multi-character token: ">>" closes two nested
	// sequences, and no front end has a shift operator.
	l, toks := lexAll(t, "a::b < >> <<")
	if got := texts(l, toks); got != "a :: b < > > < <" {
		t.Fatalf("tokens = %v", got)
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
	if p.Text(t1) != "x" || p.Text(t2) != "x" {
		t.Fatal("peek consumed input")
	}
	t3, _ := p.Next()
	if p.Text(t3) != "x" {
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
// naivePos at the token's offset, the end-of-input token against
// EndPos, and, if lexing fails, that the error is an *Error positioned
// inside the source. Every other token is peeked first, so both paths
// to a token are covered.
func checkLex(t *testing.T, src string) {
	t.Helper()
	l := NewLexer("f", src)
	prev := int32(-1)
	for n := 0; n <= len(src); n++ {
		var tok Token
		var err error
		if n%2 == 1 {
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
		if tok.Off <= prev || tok.End < tok.Off || int(tok.End) > len(src) {
			t.Fatalf("%q: token %s spans [%d,%d) after one at %d", src, l.Describe(tok), tok.Off, tok.End, prev)
		}
		prev = tok.Off
		if line, col := naivePos(src, int(tok.Off)); l.Pos(tok) != (Pos{"f", line, col}) {
			t.Fatalf("%q: token %s at offset %d has position %v, want %d:%d", src, l.Describe(tok), tok.Off, l.Pos(tok), line, col)
		}
		if tok.Kind == EOF {
			if int(tok.Off) != len(src) || l.Pos(tok) != EndPos("f", src) {
				t.Fatalf("%q: end of input at offset %d, %v; want %d, %v", src, tok.Off, l.Pos(tok), len(src), EndPos("f", src))
			}
			return
		}
	}
	t.Fatalf("%q: more tokens than bytes", src)
}

// lexCorpus is the seed corpus of FuzzLex and of the position check:
// the repository's IDL and PDL files, then inputs aimed at the lexer's
// corners.
func lexCorpus(tb testing.TB) []string {
	var files []string
	for _, pattern := range []string{
		"../../bench/*.[ip]dl",
		"../../examples/*/*.[ip]dl",
		"../../examples/*/*/*.[ip]dl",
		"../codegen/testdata/*.[ip]dl",
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) < 10 {
		tb.Fatalf("found %d IDL/PDL files, want the repository's 10: %v", len(files), files)
	}
	var corpus []string
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, string(b))
	}
	return append(corpus, lexEdges...)
}

var lexEdges = []string{
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
	for _, src := range lexCorpus(t) {
		checkLex(t, src)
	}
}

// FuzzLex: no input panics the lexer or runs it on forever, every
// token's position agrees with a naive count, and every error is an
// *Error with a position inside the source.
func FuzzLex(f *testing.F) {
	for _, src := range lexCorpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLex(t, src)
	})
}

// BenchmarkLex lexes the repository benchmark's contract and client
// PDL, the first stage of every compile BenchmarkCompile times. Compare
// a change with its parent in pairs:
//
//	go test -run '^$' -bench Lex -benchmem -count 10 ./internal/idl
func BenchmarkLex(b *testing.B) {
	var srcs []string
	for _, name := range []string{"../../bench/bench.idl", "../../bench/client.pdl"} {
		src, err := os.ReadFile(name)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			l := NewLexer("bench", src)
			for {
				tok, err := l.Next()
				if err != nil {
					b.Fatal(err)
				}
				if tok.Kind == EOF {
					break
				}
			}
		}
	}
}
