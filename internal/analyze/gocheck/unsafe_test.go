package gocheck_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The unsafe gate: the slab boxing in the marshal runtime builds
// interfaces by hand, and that is the only unsafe code the module has.
// Every other non-test Go file must do without the package.
const unsafeFile = "internal/runtime/slab.go"

// unsafeFindings reports each non-test Go file under root, outside
// testdata, hidden directories and nested modules, that imports unsafe
// when it is not allowed, the one file (relative to root) that may. An
// allowed file that no longer imports unsafe is reported as stale.
func unsafeFindings(root, allowed string) ([]string, error) {
	var findings []string
	stale := true
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, imp := range f.Imports {
			switch {
			case imp.Path.Value != `"unsafe"`:
			case rel == allowed:
				stale = false
			default:
				findings = append(findings, rel+": imports unsafe; only "+allowed+" may")
			}
		}
		return nil
	})
	if stale {
		findings = append(findings, "stale: "+allowed+" does not import unsafe")
	}
	return findings, err
}

func TestUnsafeConfined(t *testing.T) {
	findings, err := unsafeFindings(repoRoot(t), unsafeFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestUnsafeConfinedFixture runs the gate on testdata/src/unsafeuse: the
// allowed file and a test file import unsafe and pass, a second file
// imports it and is reported; then on the same tree with an allowed
// file that does not exist, which reads as stale.
func TestUnsafeConfinedFixture(t *testing.T) {
	root := filepath.Join(repoRoot(t), "internal/analyze/gocheck/testdata/src/unsafeuse")
	for _, tc := range []struct {
		allowed string
		want    []string
	}{
		{"slab.go", []string{"other.go: imports unsafe; only slab.go may"}},
		{"gone.go", []string{
			"other.go: imports unsafe; only gone.go may",
			"slab.go: imports unsafe; only gone.go may",
			"stale: gone.go does not import unsafe",
		}},
	} {
		got, err := unsafeFindings(root, tc.allowed)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("allowed %s: findings:\n%s\nwant:\n%s", tc.allowed, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
