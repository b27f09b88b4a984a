package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flexrpc/internal/experiments"
)

// benchFile is what a reader of BENCH_<fig>.json relies on. Values
// decode as any so a string or a boolean smuggled into a cell is seen.
type benchFile struct {
	Schema  int
	Figure  string
	Title   string
	Size    string
	Columns []struct{ Name, Unit string }
	Rows    []struct {
		Label  string
		Values []any
	}
	Claims     []experiments.Verdict
	Provenance map[string]any
}

func readBench(t *testing.T, dir string, f *experiments.Figure) benchFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+f.File()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("figure %s: %v", f.Name, err)
	}
	return b
}

// TestRunWritesCertificates is `experiments -json` over the whole
// registry: every figure runs and each BENCH file parses back as schema
// 2 with numeric cells, a verdict per claim and provenance. It runs at
// smoke size, not -quick: 20 s of CPU-bound figures beside the rest of
// `go test ./...` made timing claims across the suite flake on a
// two-core host. For the same reason a false timing claim is logged
// here, not failed — whether the claims hold is internal/experiments'
// shape tests' job and `./ci.sh figures`'; what a false claim does to
// the run is TestFalseClaimFailsTheRun's.
func TestRunWritesCertificates(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(experiments.Figures, "all", experiments.Smoke, false, dir, &out)
	if err != nil && !errors.Is(err, experiments.ErrFalseClaim) {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if err != nil {
		t.Logf("claims false under test load: %v", err)
	}
	for _, f := range experiments.Figures {
		b := readBench(t, dir, f)
		if b.Schema != 2 || b.Figure != f.File() || b.Size != "smoke" || b.Title == "" {
			t.Errorf("figure %s: header %+v", f.Name, b)
		}
		if !strings.Contains(out.String(), "== "+b.Title+" ==") {
			t.Errorf("figure %s: table not printed", f.Name)
		}
		if len(b.Columns) != len(f.Columns) || len(b.Rows) == 0 {
			t.Errorf("figure %s: %d columns, %d rows", f.Name, len(b.Columns), len(b.Rows))
		}
		for _, c := range b.Columns {
			if c.Name == "" || c.Unit == "" {
				t.Errorf("figure %s: column %+v lacks a name or unit", f.Name, c)
			}
		}
		for _, row := range b.Rows {
			numbers := 0
			for _, v := range row.Values {
				switch v.(type) {
				case float64:
					numbers++
				case nil: // a cell the row does not measure
				default:
					t.Errorf("figure %s, row %q: non-numeric value %#v", f.Name, row.Label, v)
				}
			}
			if len(row.Values) != len(b.Columns) || numbers == 0 {
				t.Errorf("figure %s, row %q: %d values (%d numeric) for %d columns", f.Name, row.Label, len(row.Values), numbers, len(b.Columns))
			}
		}
		if len(b.Claims) != len(f.Claims) {
			t.Errorf("figure %s: %d verdicts for %d claims", f.Name, len(b.Claims), len(f.Claims))
		}
		for _, key := range []string{"commit", "go", "gomaxprocs", "nproc", "kernel", "date", "seed"} {
			if v, ok := b.Provenance[key]; !ok || v == "" || v == 0.0 {
				t.Errorf("figure %s: provenance %q = %v", f.Name, key, v)
			}
		}
	}
}

func TestUnknownFigureListsTheRegistry(t *testing.T) {
	err := run(experiments.Figures, "13", experiments.Quick, false, "", io.Discard)
	want := `unknown figure "13" (want 2, 6, 7, 10, 11, 12, ports, marshal, faults, scale, shm, overload, c10k or all)`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if want := "(want " + experiments.Names(experiments.Figures) + " or all)"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v does not list exactly the registered names", err)
	}
}

// TestFalseClaimFailsTheRun is the certificate property: a figure whose
// numbers contradict a claim still prints and still writes its file —
// with the failed verdict in it — and the run reports failure.
func TestFalseClaimFailsTheRun(t *testing.T) {
	liar := &experiments.Figure{
		Name: "liar", Title: "Liar",
		Columns: []experiments.Column{{Name: "x", Unit: "count", Format: "%.0f"}},
		Run: func(experiments.Size) (*experiments.Result, error) {
			return &experiments.Result{Rows: []experiments.Row{{Label: "one", Cells: []float64{1}}}}, nil
		},
		Claims: []experiments.Claim{
			{Name: "one is one", Check: func(r *experiments.Report) error { return nil }},
			{Name: "one is two", Check: func(r *experiments.Report) error {
				if r.Cell("one", "x") != 2 {
					return io.ErrUnexpectedEOF
				}
				return nil
			}},
		},
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]*experiments.Figure{liar}, "liar", experiments.Quick, false, dir, &out)
	if !errors.Is(err, experiments.ErrFalseClaim) || !strings.Contains(err.Error(), `claim is false: "one is two"`) {
		t.Fatalf("err = %v, want the false claim", err)
	}
	if !strings.Contains(out.String(), "== Liar ==") {
		t.Errorf("the table must print before the run fails:\n%s", out.String())
	}
	b := readBench(t, dir, liar)
	if len(b.Claims) != 2 || !b.Claims[0].Holds || b.Claims[1].Holds || b.Claims[1].Detail == "" {
		t.Fatalf("verdicts = %+v", b.Claims)
	}
}

// TestDocCommentListsTheRegistry keeps the one hand-written copy of the
// figure names — the package comment godoc shows — equal to the
// registry the -fig usage and error strings are generated from.
func TestDocCommentListsTheRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	if want := "(" + experiments.Names(experiments.Figures) + ")"; !strings.Contains(doc, want) {
		t.Errorf("package comment does not list the figures as %s", want)
	}
}
