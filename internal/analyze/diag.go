// Diagnostic engine: every flexvet finding carries a stable check ID,
// a severity, a source position when one is known, and a one-line fix
// suggestion, and renders in go vet style.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"flexrpc/internal/idl"
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	// SevInfo findings are observations that need no action.
	SevInfo Severity = iota
	// SevWarning findings are suspicious but may be intentional.
	SevWarning
	// SevError findings are unsafe or meaningless annotation uses;
	// flexc vet exits non-zero when any is present.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// A Diagnostic is one analyzer finding.
type Diagnostic struct {
	// ID is the stable check identifier ("FV001"...). See Checks.
	ID string
	// Severity grades the finding.
	Severity Severity
	// Pos locates the annotation that caused the finding; the zero
	// value means no source position is known (e.g. a hand-built
	// presentation or a contract-level finding).
	Pos idl.Pos
	// Message is the human-readable finding.
	Message string
	// Fix is a one-line suggestion for resolving the finding.
	Fix string
}

// String renders the diagnostic in go vet style:
//
//	file:line:col: message [FV001]
func (d Diagnostic) String() string {
	if d.Pos.Line == 0 {
		return fmt.Sprintf("%s [%s]", d.Message, d.ID)
	}
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.ID)
}

// MarshalJSON renders the machine-readable form used by
// `flexc vet -json`.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID       string   `json:"id"`
		Severity Severity `json:"severity"`
		File     string   `json:"file,omitempty"`
		Line     int      `json:"line,omitempty"`
		Col      int      `json:"col,omitempty"`
		Message  string   `json:"message"`
		Fix      string   `json:"fix,omitempty"`
	}{d.ID, d.Severity, d.Pos.File, d.Pos.Line, d.Pos.Col, d.Message, d.Fix})
}

// Render formats diagnostics one per line in go vet style.
func Render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderLines formats diagnostics in the machine-readable NDJSON
// form of `flexc vet -json`: one Diagnostic object per line, so CI
// pipelines and editors can stream-parse without buffering an array.
func RenderLines(diags []Diagnostic) ([]byte, error) {
	var b strings.Builder
	for _, d := range diags {
		line, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// SortDiags orders findings by position, then ID, then message, so
// output is deterministic for golden tests and CI diffing. External
// analyzer suites (gocheck) use it to merge their findings into the
// same stable order.
func SortDiags(diags []Diagnostic) { sortDiags(diags) }

// sortDiags orders findings by position, then ID, then message, so
// output is deterministic for golden tests and CI diffing.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Message < b.Message
	})
}
