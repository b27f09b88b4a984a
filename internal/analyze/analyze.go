// Package analyze is flexvet: a multi-pass static analyzer over the
// (network contract, presentation) pair produced by the first two
// compiler stages.
//
// The paper's central safety argument is that presentation
// annotations never change the network contract; flexvet checks the
// contrapositive before anything reaches the runtime. Three passes
// run over one or more endpoints of an interface:
//
//   - cross-endpoint compatibility: two independently-annotated
//     endpoints of the same interface must share an identical wire
//     contract (FV001), and annotation *pairs* that are individually
//     legal but jointly unsafe are reported (FV002, FV003);
//   - annotation safety lints: combinations that leak, alias, or
//     grant trust across a protection boundary (FV004–FV006);
//   - presentation/interface consistency: annotations that are dead
//     or meaningless for their parameter's type and direction
//     (FV007–FV012), reported exhaustively with source positions
//     rather than failing at the first error the way
//     pres.Validate does.
//
// Entry points: Check for plain presentations, CheckEndpoints when
// transport bindings and endpoint labels are known. flexc vet is the
// CLI.
package analyze

import (
	"fmt"

	"flexrpc/internal/idl"
	"flexrpc/internal/pres"
)

// An Endpoint is one side of a connection as seen by the analyzer.
type Endpoint struct {
	// Pres is the endpoint's presentation (required).
	Pres *pres.Presentation
	// Transport optionally names the transport the endpoint binds to
	// ("inproc", "machipc", "fbufrpc", "suntcp"); the trust lint
	// (FV005) fires only for network transports.
	Transport string
	// Label names the endpoint in cross-endpoint messages; defaults
	// to "endpoint1", "endpoint2", ...
	Label string
}

// IsNetworkTransport reports whether the named transport crosses a
// machine boundary, making trust grants dangerous (FV005). The
// in-memory transports (inproc, machipc, fbufrpc) are same-machine.
func IsNetworkTransport(name string) bool {
	switch name {
	case "suntcp", "sunudp", "tcp", "udp", "net":
		return true
	}
	return false
}

// Check runs every applicable pass over the given presentations of
// one interface: single-endpoint lints on each, cross-endpoint
// compatibility on every pair.
func Check(ps ...*pres.Presentation) []Diagnostic {
	eps := make([]Endpoint, len(ps))
	for i, p := range ps {
		eps[i] = Endpoint{Pres: p}
	}
	return CheckEndpoints(eps)
}

// CheckEndpoints is Check with transport bindings and labels.
func CheckEndpoints(eps []Endpoint) []Diagnostic {
	c := &checker{}
	for i := range eps {
		if eps[i].Label == "" {
			eps[i].Label = fmt.Sprintf("endpoint%d", i+1)
		}
		c.checkEndpoint(eps[i])
	}
	for i := 0; i < len(eps); i++ {
		for j := i + 1; j < len(eps); j++ {
			c.checkPair(eps[i], eps[j])
		}
	}
	sortDiags(c.diags)
	return c.diags
}

// checker accumulates findings across passes.
type checker struct {
	diags []Diagnostic
}

// report files a finding under the given check ID at the registry's
// default severity.
func (c *checker) report(id string, pos idl.Pos, format string, args ...any) {
	c.reportSev(id, registry[id].Severity, pos, format, args...)
}

// reportSev files a finding with an explicit severity (FV005
// escalates for [unprotected]).
func (c *checker) reportSev(id string, sev Severity, pos idl.Pos, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		ID:       id,
		Severity: sev,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Fix:      registry[id].Fix,
	})
}
