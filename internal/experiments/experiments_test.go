package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Every figure runs here at its smoke size. The claims checked are the
// figures' own — the same names and margins cmd/experiments checks at
// full size — with margins generous enough that scheduling noise cannot
// flake the suite while inverted results and broken configurations are
// still caught.

// checkFigure runs one registered figure and checks what every figure
// owes: a table whose printed form carries the title, every label and
// every printed column, and claims that all hold.
func checkFigure(t *testing.T, name string) {
	t.Helper()
	figs, err := Select(Figures, name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := figs[0].Execute(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || len(rep.Verdicts) == 0 {
		t.Fatalf("figure %s: %d rows, %d claims; a figure measures something and claims something", name, len(rep.Rows), len(rep.Verdicts))
	}
	text := rep.Format()
	if rep.Title == "" || !strings.Contains(text, "== "+rep.Title+" ==") {
		t.Errorf("table missing title %q:\n%s", rep.Title, text)
	}
	for _, row := range rep.Rows {
		if !strings.Contains(text, row.Label) {
			t.Errorf("table missing row %q", row.Label)
		}
	}
	header := strings.Join(rep.lines("")[0], "\x00") + "\x00"
	for _, c := range rep.Figure.Columns {
		if printed := strings.Contains(header, "\x00"+c.Name+"\x00"); printed == c.Hidden {
			t.Errorf("column %q: hidden=%v, printed=%v", c.Name, c.Hidden, printed)
		}
	}
	for _, v := range rep.Verdicts {
		if !v.Holds {
			t.Errorf("claim %q is false: %s", v.Claim, v.Detail)
		}
	}
	if t.Failed() {
		t.Log("\n" + text)
	}
}

func TestFig2ShapeAndInvariants(t *testing.T) { checkFigure(t, "2") }
func TestFig6Shape(t *testing.T)              { checkFigure(t, "6") }
func TestFig7Shape(t *testing.T)              { checkFigure(t, "7") }
func TestFig10Shape(t *testing.T)             { checkFigure(t, "10") }
func TestFig11Shape(t *testing.T)             { checkFigure(t, "11") }
func TestFig12Shape(t *testing.T)             { checkFigure(t, "12") }
func TestPortTransferShape(t *testing.T)      { checkFigure(t, "ports") }
func TestFigMarshalShape(t *testing.T)        { checkFigure(t, "marshal") }
func TestFigFaultsShape(t *testing.T)         { checkFigure(t, "faults") }
func TestFigScaleShape(t *testing.T)          { checkFigure(t, "scale") }
func TestFigShmShape(t *testing.T)            { checkFigure(t, "shm") }
func TestFigOverloadShape(t *testing.T)       { checkFigure(t, "overload") }
func TestFigC10KShape(t *testing.T)           { checkFigure(t, "c10k") }

// TestRegistry checks the descriptions themselves, and that the
// per-figure tests above cover the registry: a figure added to Figures
// without a shape test fails here.
func TestRegistry(t *testing.T) {
	src, err := os.ReadFile("experiments_test.go")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	files := map[string]bool{}
	for _, f := range Figures {
		if names[f.Name] || files[f.File()] {
			t.Errorf("figure %q registered twice", f.Name)
		}
		names[f.Name], files[f.File()] = true, true
		if !strings.Contains(string(src), `checkFigure(t, "`+f.Name+`")`) {
			t.Errorf("figure %q has no shape test", f.Name)
		}
		if f.Run == nil || len(f.Claims) == 0 {
			t.Errorf("figure %q needs a Run and at least one claim", f.Name)
		}
		claims := map[string]bool{}
		for _, c := range f.Claims {
			if c.Name == "" || claims[c.Name] {
				t.Errorf("figure %q: claim name %q empty or repeated", f.Name, c.Name)
			}
			claims[c.Name] = true
		}
		for _, c := range f.Columns {
			if c.Name == "" || c.Unit == "" || !strings.Contains(c.Format, "%") {
				t.Errorf("figure %q: column %+v needs a name, a unit and a format", f.Name, c)
			}
		}
		systems := map[string]bool{}
		for _, s := range f.Systems {
			if s.Name == "" || systems[s.Name] || s.New == nil {
				t.Errorf("figure %q: system %q unnamed, repeated or unbuildable", f.Name, s.Name)
			}
			systems[s.Name] = true
		}
	}
	if _, err := Select(Figures, "nope"); err == nil || !strings.Contains(err.Error(), "want "+Names(Figures)+" or all") {
		t.Errorf("unknown figure error = %v, want it to list %s", err, Names(Figures))
	}
}

// TestSystemsRunOnce builds every benchmark system and runs one
// operation, so a system only BenchmarkFig drives cannot rot unseen.
func TestSystemsRunOnce(t *testing.T) {
	for _, f := range Figures {
		for _, s := range f.Systems {
			op, closeFn, err := s.New()
			if err != nil {
				t.Fatalf("%s/%s: %v", f.Name, s.Name, err)
			}
			if err := op(); err != nil {
				t.Errorf("%s/%s: %v", f.Name, s.Name, err)
			}
			closeFn()
		}
	}
}

// fakeFigure is a two-row grouped figure with one true and one false
// claim, a hidden column and an unmeasured cell.
func fakeFigure() *Figure {
	return &Figure{
		Name: "9", Title: "T", Note: "note",
		Columns: []Column{
			{Name: "a", Unit: "ns", Format: "%.1f"},
			{Name: "bb", Unit: "%", Format: "%+.0f%%"},
			{Name: "secret", Unit: "count", Format: "%.0f", Hidden: true},
		},
		Run: func(Size) (*Result, error) {
			return &Result{Rows: []Row{
				{Group: "g", Label: "row one", Cells: []float64{1, 24, 7}},
				{Group: "g", Label: `with "quotes", and comma`, Cells: []float64{10, math.NaN(), 8}},
			}}, nil
		},
		Claims: []Claim{
			cmp("row one is smaller", ref{"g: row one", "a"}, "<", 1, ref{`g: with "quotes", and comma`, "a"}),
			bound("unmeasured cells fail claims", ">=", 0, ref{`g: with "quotes", and comma`, "bb"}),
			bound("absent rows fail claims", "==", 0, ref{"no such row", "a"}),
		},
	}
}

func TestTableFormatting(t *testing.T) {
	rep, err := fakeFigure().Execute(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	want := "== T ==\nnote\n" +
		"                                   a    bb\n" +
		"  g:                                      \n" +
		"      row one                    1.0  +24%\n" +
		"      with \"quotes\", and comma  10.0     -\n"
	if got := rep.Format(); got != want {
		t.Errorf("formatted table =\n%s\nwant\n%s", got, want)
	}
	if v := pctDelta(100, 124); v != 24 {
		t.Errorf("pctDelta(100, 124) = %v", v)
	}
	if !math.IsNaN(pctDelta(0, 5)) {
		t.Error("pctDelta without a base must be NaN")
	}
	if mbps(1e6, time.Second) != 1.0 || mbps(1, 0) != 0 {
		t.Error("mbps wrong")
	}
}

func TestTableCSV(t *testing.T) {
	rep, err := fakeFigure().Execute(Smoke)
	if err != nil {
		t.Fatal(err)
	}
	want := "config,a,bb\ng:,,\nrow one,1.0,+24%\n\"with \"\"quotes\"\", and comma\",10.0,-\n"
	if got := rep.CSV(); got != want {
		t.Fatalf("csv =\n%q\nwant\n%q", got, want)
	}
}

// TestVerdictsAndJSON pins the certificate: verdicts in claim order
// with the numbers of a false one, and a schema-2 file whose values are
// numbers or null.
func TestVerdictsAndJSON(t *testing.T) {
	f := fakeFigure()
	rep, err := f.Execute(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Verdicts; len(v) != 3 || !v[0].Holds || v[1].Holds || v[2].Holds || !strings.Contains(v[1].Detail, "NaN") {
		t.Fatalf("verdicts = %+v", v)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), `claim is false: "unmeasured cells fail claims"`) {
		t.Fatalf("Err() = %v", err)
	}
	dir := t.TempDir()
	if err := rep.WriteJSON(dir, NewProvenance()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fig9.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Schema  int
		Figure  string
		Size    string
		Columns []struct {
			Name, Unit string
			Hidden     bool
		}
		Rows []struct {
			Group, Label string
			Values       []*float64
		}
		Claims     []Verdict
		Provenance Provenance
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if got.Schema != 2 || got.Figure != "fig9" || got.Size != "quick" {
		t.Errorf("header = %+v", got)
	}
	if len(got.Columns) != 3 || got.Columns[1].Unit != "%" || !got.Columns[2].Hidden {
		t.Errorf("columns = %+v", got.Columns)
	}
	if len(got.Rows) != 2 || got.Rows[0].Group != "g" || *got.Rows[0].Values[1] != 24 || got.Rows[1].Values[1] != nil || *got.Rows[1].Values[2] != 8 {
		t.Errorf("rows = %+v", got.Rows)
	}
	if len(got.Claims) != 3 || got.Claims[1].Holds || got.Claims[1].Detail == "" {
		t.Errorf("claims = %+v", got.Claims)
	}
	p := got.Provenance
	if p.Commit == "" || p.Go == "" || p.GOMAXPROCS < 1 || p.NProc < 1 || p.Kernel == "" || p.Date == "" || p.Seed != Seed {
		t.Errorf("provenance = %+v", p)
	}
}

func TestBestOfPicksMinimum(t *testing.T) {
	calls := 0
	durs := []time.Duration{5 * time.Millisecond, 2 * time.Millisecond, 9 * time.Millisecond}
	got, err := bestOf(3, func() (time.Duration, error) {
		calls++
		return durs[calls-1], nil
	})
	if err != nil || got != 2*time.Millisecond || calls != 3 {
		t.Fatalf("bestOf = %v, %v after %d calls", got, err, calls)
	}
}
