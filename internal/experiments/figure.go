// Package experiments regenerates every figure of the paper's
// evaluation (§4), and the figures this repo added beyond it, from one
// description per figure: a Figure names its typed columns, a Run that
// assembles the systems under test from the same public building
// blocks the examples use and returns numeric cells, the claims those
// cells must satisfy, and the per-operation Systems the root
// benchmarks drive. Everything a reader sees — the aligned table, the
// CSV, BENCH_<fig>.json, the claim verdicts, cmd/experiments' usage
// text, the shape tests and BenchmarkFig — is derived by iterating
// Figures, so a figure is added in exactly one place.
//
// Absolute numbers are 2026-Go numbers; the experiments reproduce the
// paper's *shapes*: which presentation wins, roughly by what factor,
// and where flexible presentation matches the best fixed choice. The
// claims state those shapes with margins wide enough for a time-shared
// machine.
package experiments

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"strings"
)

// Size selects how much work a figure does.
type Size int

const (
	Full  Size = iota // the paper-sized workload
	Quick             // cmd/experiments -quick: smaller, noisier
	Smoke             // the smallest workload the claims hold on: tests, benchmarks
)

func (s Size) String() string { return [...]string{"full", "quick", "smoke"}[s] }

// pick returns the value a figure uses at size s.
func pick[T any](s Size, full, quick, smoke T) T { return [...]T{full, quick, smoke}[s] }

// A Column is one typed column of a figure.
type Column struct {
	Name   string `json:"name"`             // header, as printed
	Unit   string `json:"unit"`             // "ns", "ms", "1/s", "%", "count", "B", ...
	Format string `json:"-"`                // fmt verb for one float64 cell, e.g. "%.1f"
	Hidden bool   `json:"hidden,omitempty"` // carried in the JSON and visible to claims, not printed
}

// A Row is one labelled line of cells, one per column. A cell the row
// does not measure is NaN: "-" in text, null in JSON.
type Row struct {
	Group string // bar group (Figures 10-11), printed once above its first row
	Label string
	Cells []float64
}

// Name is how claims address the row.
func (r Row) Name() string {
	if r.Group == "" {
		return r.Label
	}
	return r.Group + ": " + r.Label
}

// A Result is what one run of a figure measured. Title and Note
// replace the figure's when set: some quote the workload.
type Result struct {
	Title string `json:"title"`
	Note  string `json:"note,omitempty"`
	Rows  []Row  `json:"rows"`
}

// A Claim is a named inequality over a figure's cells. Check returns
// nil when it holds and otherwise an error quoting the numbers.
type Claim struct {
	Name  string
	Check func(r *Report) error
}

// Build assembles one system under test and reduces it to the
// operation a figure times: one RPC, one chunk through a pipe.
type Build func() (op func() error, closeFn func(), err error)

// A System is a named Build. A figure's Run and the root BenchmarkFig
// obtain the system from the same Build, so it is constructed in one
// place.
type System struct {
	Name  string
	Bytes int64 // payload one op moves (testing.B.SetBytes); 0 for a null call
	New   Build
}

// systems names the Builds build(0..len(names)-1).
func systems(bytes int64, names []string, build func(i int) Build) []System {
	out := make([]System, len(names))
	for i, name := range names {
		out[i] = System{Name: name, Bytes: bytes, New: build(i)}
	}
	return out
}

// A Figure is one table of the evaluation, as data.
type Figure struct {
	Name        string // the -fig name: "2", "ports", "c10k"
	Title, Note string
	Columns     []Column
	Run         func(Size) (*Result, error)
	Claims      []Claim
	Systems     []System // nil: no per-operation hot path; BenchmarkFig runs the figure whole
}

// Figures is the registry, in print order.
var Figures = []*Figure{
	fig2, fig6, fig7, fig10, fig11, fig12, figPorts,
	figMarshal, figFaults, figScale, figShm, figOverload, figC10K,
}

// Names lists the figures' -fig names, comma-separated: the usage and
// error text of cmd/experiments.
func Names(figs []*Figure) string {
	names := make([]string, len(figs))
	for i, f := range figs {
		names[i] = f.Name
	}
	return strings.Join(names, ", ")
}

// Select returns the figure called name, or all of figs for "all".
func Select(figs []*Figure, name string) ([]*Figure, error) {
	if name == "all" {
		return figs, nil
	}
	for _, f := range figs {
		if f.Name == name {
			return []*Figure{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown figure %q (want %s or all)", name, Names(figs))
}

// File is the stem of the figure's BENCH file: the numbered figures of
// the paper are "fig2", the rest go by name.
func (f *Figure) File() string {
	if f.Name[0] >= '0' && f.Name[0] <= '9' {
		return "fig" + f.Name
	}
	return f.Name
}

// A Verdict is one claim checked against one run.
type Verdict struct {
	Claim  string `json:"claim"`
	Holds  bool   `json:"holds"`
	Detail string `json:"detail,omitempty"` // the numbers, when it does not
}

// A Report is one executed figure: its cells and the verdict on every
// claim.
type Report struct {
	Figure *Figure
	Size   Size
	Result
	Verdicts []Verdict
}

// Execute runs the figure at the given size and checks its claims. The
// error is for a run that could not measure; a false claim is a
// verdict, reported by Err.
func (f *Figure) Execute(size Size) (*Report, error) {
	res, err := f.Run(size)
	if err != nil {
		return nil, fmt.Errorf("figure %s: %w", f.Name, err)
	}
	rep := &Report{Figure: f, Size: size, Result: *res}
	if rep.Title == "" {
		rep.Title = f.Title
	}
	if rep.Note == "" {
		rep.Note = f.Note
	}
	for _, row := range rep.Rows {
		if len(row.Cells) != len(f.Columns) {
			return nil, fmt.Errorf("figure %s: row %q has %d cells for %d columns", f.Name, row.Name(), len(row.Cells), len(f.Columns))
		}
	}
	for _, c := range f.Claims {
		v := Verdict{Claim: c.Name, Holds: true}
		if err := c.Check(rep); err != nil {
			v.Holds, v.Detail = false, err.Error()
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep, nil
}

// ErrFalseClaim marks an error that reports measured numbers
// contradicting a claim, as opposed to a figure that could not run.
var ErrFalseClaim = errors.New("claim is false")

// Err reports the claims the run contradicts, nil when all hold.
func (r *Report) Err() error {
	var errs []error
	for _, v := range r.Verdicts {
		if !v.Holds {
			errs = append(errs, fmt.Errorf("figure %s: %w: %q: %s", r.Figure.Name, ErrFalseClaim, v.Claim, v.Detail))
		}
	}
	return errors.Join(errs...)
}

// Cell returns the named row's value in the named column, NaN when
// either is absent — which fails any claim that compares it.
func (r *Report) Cell(row, col string) float64 {
	for _, rw := range r.Rows {
		if rw.Name() == row {
			return r.cellOf(rw, col)
		}
	}
	return math.NaN()
}

func (r *Report) cellOf(row Row, col string) float64 {
	for i, c := range r.Figure.Columns {
		if c.Name == col {
			return row.Cells[i]
		}
	}
	return math.NaN()
}

// lines renders the printed columns: the header line, then one line
// per row with the label first. A group prints as its own line ahead
// of its first row, whose labels are then indented by indent.
func (r *Report) lines(indent string) [][]string {
	header := []string{""}
	for _, c := range r.Figure.Columns {
		if !c.Hidden {
			header = append(header, c.Name)
		}
	}
	out := [][]string{header}
	group := ""
	for _, row := range r.Rows {
		label := row.Label
		if row.Group != "" {
			if row.Group != group {
				group = row.Group
				out = append(out, append([]string{group + ":"}, make([]string, len(header)-1)...))
			}
			label = indent + label
		}
		line := []string{label}
		for i, c := range r.Figure.Columns {
			switch {
			case c.Hidden:
			case math.IsNaN(row.Cells[i]):
				line = append(line, "-")
			default:
				line = append(line, fmt.Sprintf(c.Format, row.Cells[i]))
			}
		}
		out = append(out, line)
	}
	return out
}

// Format renders the figure as an aligned text table.
func (r *Report) Format() string {
	lines := r.lines("    ")
	widths := make([]int, len(lines[0]))
	for _, line := range lines {
		for i, s := range line {
			widths[i] = max(widths[i], len(s))
		}
	}
	out := "== " + r.Title + " ==\n"
	if r.Note != "" {
		out += r.Note + "\n"
	}
	for _, line := range lines {
		out += fmt.Sprintf("  %-*s", widths[0], line[0])
		for i, s := range line[1:] {
			out += fmt.Sprintf("  %*s", widths[i+1], s)
		}
		out += "\n"
	}
	return out
}

// CSV renders the figure as comma-separated rows, header first, for
// cmd/experiments -csv.
func (r *Report) CSV() string {
	lines := r.lines("")
	lines[0][0] = "config"
	var out strings.Builder
	_ = csv.NewWriter(&out).WriteAll(lines) // a strings.Builder cannot fail
	return out.String()
}
