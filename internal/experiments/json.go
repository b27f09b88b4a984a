package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// BENCH_<fig>.json, schema 2: a figure file is a certificate, not a
// log. It carries the cells as numbers with their units, the verdict
// on every claim, the workload's parameters, and which commit,
// toolchain and host produced it — the provenance block bench/ prints.

// Seed is the one seed every seeded component of a figure uses (fault
// schedules, retry jitter, flexload arrivals), so provenance can name
// it.
const Seed = 1

// Provenance says what produced a set of numbers.
type Provenance struct {
	Commit     string `json:"commit"` // HEAD the binary was built from; "+dirty" with uncommitted changes
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
}

// NewProvenance describes this process. One value serves every figure
// of a run, so their files agree.
func NewProvenance() Provenance {
	p := Provenance{
		Commit: vcsCommit(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Kernel: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		Seed: Seed,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// vcsCommit is the revision stamped into a `go build` binary, as in
// bench/; `go run` and `go test` stamp none.
func vcsCommit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// MarshalJSON writes the row's cells as values, null where the row
// does not measure the column.
func (r Row) MarshalJSON() ([]byte, error) {
	values := make([]*float64, len(r.Cells))
	for i := range r.Cells {
		if !math.IsNaN(r.Cells[i]) && !math.IsInf(r.Cells[i], 0) {
			values[i] = &r.Cells[i]
		}
	}
	return json.Marshal(struct {
		Group  string     `json:"group,omitempty"`
		Label  string     `json:"label"`
		Values []*float64 `json:"values"`
	}{r.Group, r.Label, values})
}

// WriteJSON writes the report as BENCH_<fig>.json in dir.
func (r *Report) WriteJSON(dir string, prov Provenance) error {
	data, err := json.MarshalIndent(struct {
		Schema int    `json:"schema"`
		Figure string `json:"figure"`
		Size   string `json:"size"`
		Result
		Columns    []Column   `json:"columns"`
		Claims     []Verdict  `json:"claims"`
		Provenance Provenance `json:"provenance"`
	}{2, r.Figure.File(), r.Size.String(), r.Result, r.Figure.Columns, r.Verdicts, prov}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+r.Figure.File()+".json"), append(data, '\n'), 0o644)
}
