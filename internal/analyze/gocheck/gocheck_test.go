package gocheck_test

import (
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"flexrpc/internal/analyze"
	"flexrpc/internal/analyze/gocheck"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtures are the seeded-violation packages under testdata/src. The
// clean package must produce no findings; the rest pin one check each.
var fixtures = []string{"clean", "fv017", "fv018", "fv020", "fv023", "fv023pool"}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// loadModule type-checks the whole module once for the tests that
// sweep it (TestSelfClean, TestSurface).
var loadModule = sync.OnceValues(func() ([]*gocheck.Package, error) {
	return gocheck.Load("../../..", "./...")
})

// counterContract binds the PDL contract the fv018 fixture's handlers
// register under: bump and peek are [idempotent], record is not.
func counterContract(t *testing.T) *pres.Presentation {
	t.Helper()
	file, err := corba.Parse("counter.idl", `
		interface Counter {
		    long long bump(in string key);
		    long long peek();
		    void record();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	p := pres.Default(file.Interface("Counter"), pres.StyleCORBA)
	if err := pdl.ApplyLoose(p, "counter.pdl",
		"interface Counter {\n    [idempotent] bump(key);\n    [idempotent] peek();\n};\n"); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenGo loads every fixture package in one go list invocation,
// runs the full analyzer suite, and pins the rendered findings per
// fixture. Positions in the goldens are relative to the module root.
func TestGoldenGo(t *testing.T) {
	root := repoRoot(t)
	patterns := make([]string, len(fixtures))
	for i, name := range fixtures {
		patterns[i] = "./internal/analyze/gocheck/testdata/src/" + name
	}
	pkgs, err := gocheck.Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(fixtures) {
		t.Fatalf("loaded %d packages, want %d", len(pkgs), len(fixtures))
	}

	checker := &gocheck.Checker{Contract: counterContract(t), TrimDir: root}
	diags, err := checker.CheckPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}

	byFixture := make(map[string][]analyze.Diagnostic)
	for _, d := range diags {
		byFixture[path.Base(path.Dir(d.Pos.File))] = append(
			byFixture[path.Base(path.Dir(d.Pos.File))], d)
	}
	for name := range byFixture {
		found := false
		for _, f := range fixtures {
			found = found || f == name
		}
		if !found {
			t.Errorf("findings in unexpected package %q", name)
		}
	}

	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			got := analyze.Render(byFixture[name])
			if name == "clean" {
				if got != "" {
					t.Fatalf("clean fixture produced findings:\n%s", got)
				}
				return
			}
			gpath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(gpath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(gpath)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics drifted from %s:\n--- got ---\n%s--- want ---\n%s", gpath, got, want)
			}
		})
	}
}

// TestSelfClean runs the suite over the repository's own packages.
// Everything must be clean except examples/vetgo, the deliberately
// seeded violation range, where FV017/FV020/FV023 must fire (FV018
// additionally needs the example's PDL contract bound; the CLI tests
// and ci.sh cover that path).
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root := repoRoot(t)
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	checker := &gocheck.Checker{TrimDir: root}
	diags, err := checker.CheckPackages(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	seeded := map[string]bool{}
	for _, d := range diags {
		if !strings.HasPrefix(d.Pos.File, "examples/vetgo/") {
			t.Errorf("finding outside the seeded example: %s", d)
			continue
		}
		seeded[d.ID] = true
	}
	for _, id := range []string{"FV017", "FV020", "FV023"} {
		if !seeded[id] {
			t.Errorf("seeded violation %s in examples/vetgo not detected", id)
		}
	}
}
