package fileio

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"flexrpc"
	"flexrpc/internal/codegen"
	"flexrpc/internal/core"
)

// impl is a trivial in-memory FileIO server used to exercise the
// generated stubs end to end.
type impl struct {
	buf bytes.Buffer
}

func (s *impl) Read(call *flexrpc.Call, count uint32) ([]byte, error) {
	out := make([]byte, count)
	n, _ := s.buf.Read(out)
	return out[:n], nil
}

func (s *impl) Write(call *flexrpc.Call, data []byte) error {
	s.buf.Write(data)
	return nil
}

func (s *impl) CloseWrite(call *flexrpc.Call) error { return nil }
func (s *impl) CloseRead(call *flexrpc.Call) error  { return nil }

func compileIDL(t testing.TB) *core.Compiled {
	t.Helper()
	src, err := os.ReadFile("fileio.idl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(core.Options{
		Frontend: core.FrontendCORBA,
		Filename: "fileio.idl",
		Source:   string(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeneratedStubsEndToEnd(t *testing.T) {
	c := compileIDL(t)
	disp := flexrpc.NewDispatcher(c.Pres)
	RegisterFileIO(disp, &impl{})
	conn, err := flexrpc.ConnectInProc(c.Pres, disp)
	if err != nil {
		t.Fatal(err)
	}
	client := NewFileIOClient(conn)

	if err := client.Write([]byte("through generated stubs")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "through" {
		t.Fatalf("read = %q", got)
	}
	if err := client.CloseWrite(); err != nil {
		t.Fatal(err)
	}
}

// Over an in-process connection nothing marshals, so nothing has
// type-checked the result before the generated client unpacks it: a
// handler that never calls SetResult must cost the caller an error
// naming the operation, not a panic.
func TestNilResultOverInProcIsAnError(t *testing.T) {
	c := compileIDL(t)
	disp := flexrpc.NewDispatcher(c.Pres)
	disp.Handle("read", func(call *flexrpc.Call) error { return nil })
	conn, err := flexrpc.ConnectInProc(c.Pres, disp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewFileIOClient(conn).Read(4)
	if err == nil || !strings.Contains(err.Error(), "FileIO.read result") {
		t.Fatalf("Read = %q, %v; want an error naming FileIO.read result", got, err)
	}
}

// The committed file must match what the generator produces from the
// committed IDL — the usual go:generate freshness check.
func TestGeneratedFileIsFresh(t *testing.T) {
	c := compileIDL(t)
	want, err := codegen.Generate(c, codegen.Options{Package: "fileio"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("fileio.go")
	if err != nil {
		t.Fatal(err)
	}
	// The committed header names the IDL path used at generation
	// time; normalize it before comparing.
	normalize := func(b []byte) []byte {
		lines := bytes.SplitN(b, []byte("\n"), 2)
		return lines[1]
	}
	if !bytes.Equal(normalize(got), normalize(want)) {
		t.Fatal("fileio.go is stale; regenerate with:\n  go run ./cmd/flexc -frontend corba -backend go -package fileio -o examples/pipes/fileio/fileio.go examples/pipes/fileio/fileio.idl")
	}
}
