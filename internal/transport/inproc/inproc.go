// Package inproc is the same-domain transport (paper §4.4): when
// client and server share a protection domain, RPC short-circuits to
// a direct invocation with no marshaling, but the stubs must still
// honor both endpoints' presentations.
//
// The invocation semantics — copy vs borrow for in parameters, who
// provides the buffer for out parameters — are derived from the two
// sides' presentation attributes once, at Connect time, by
// pres.Combine: the combination signature the paper describes in
// §4.5, which pairs operations by name and parameters by position.
// runtime.SameDomain compiles it into the program every call runs.
// Presentations are part of the binding, so a presentation changed
// after Connect requires a new Connect, exactly as a re-bind would over
// a message transport.
package inproc

import (
	"fmt"

	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
)

// A Conn is a same-domain binding between a client presentation and
// a server dispatcher: the bound same-domain program itself.
type Conn = runtime.SameDomain

// Connect binds a client presentation to a dispatcher in the same
// domain. The two presentations may differ arbitrarily, but the
// network contract must match — the same check a remote bind
// performs.
func Connect(clientPres *pres.Presentation, disp *runtime.Dispatcher) (*Conn, error) {
	comb, err := pres.Combine(clientPres, disp.Pres)
	if err != nil {
		return nil, fmt.Errorf("inproc: %w", err)
	}
	return runtime.NewSameDomain(comb, disp, nil, true), nil
}
