// Package conformance holds the cross-transport conformance test
// matrix: one canonical interface — in/out/inout parameters, octet
// sequences, [special] hooks, an [idempotent] operation — driven over
// every transport the bind step can pick (in-process, loopback message
// conn, the shared-memory ring bound inline and through its doorbell,
// Mach IPC ports, fbuf IPC, Sun RPC over a simulated network), and
// over the loopback and Sun RPC transports under every session
// arrangement (plain, at-most-once RobustConn, RobustConn over an
// injected-fault channel), asserting that all cells agree on results,
// on the error taxonomy (application errors, remote errors, deadline
// expiry), on at-most-once execution counts, and on deadline behavior.
//
// The matrix is the repository's executable statement of what the
// paper's flexibility claim requires: a presentation compiled once
// must mean the same thing no matter which transport the bind step
// later picks. Every cell also runs with client-side stats enabled,
// so the observability layer is exercised over each transport through
// the same interface.
package conformance
