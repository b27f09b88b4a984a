package runtime

import "flexrpc/internal/pres"

// Same-domain invocation semantics (paper §4.4): when client and
// server share a protection domain, RPC short-circuits to a
// procedure call, but the RPC system must still decide how to
// transfer each parameter without breaking either side's
// expectations. These decisions cannot themselves be presentation
// attributes — they involve both endpoints — but they are *derived
// from* presentation attributes, one from each side, which is
// exactly what the functions below compute.

// InSemantics is the transfer method for an in parameter.
type InSemantics int

// In-parameter semantics.
const (
	// InCopy: the stub must hand the server a private copy.
	InCopy InSemantics = iota
	// InBorrow: the stub may pass the client's buffer by reference.
	InBorrow
)

func (s InSemantics) String() string {
	if s == InBorrow {
		return "borrow"
	}
	return "copy"
}

// NegotiateIn derives in-parameter semantics from the client's and
// server's attributes (paper §4.4.1): a copy is needed only if
// *neither* the client declared the buffer [trashable] *nor* the
// server promised to keep it [preserved].
func NegotiateIn(client, server *pres.ParamAttrs) InSemantics {
	if client.Trashable || server.Preserved {
		return InBorrow
	}
	return InCopy
}

// OutSemantics is the transfer method for an out parameter or
// result.
type OutSemantics int

// Out-parameter semantics.
const (
	// OutStubAlloc: neither side insists; the RPC system provides
	// the buffer and hands it from server to client by reference.
	OutStubAlloc OutSemantics = iota
	// OutServerBuffer: the server provides the buffer (it already
	// owns the data); the client consumes it by reference.
	OutServerBuffer
	// OutCallerBuffer: the caller provides the buffer and the
	// server fills it in place.
	OutCallerBuffer
	// OutCopy: both sides insist on their own buffer; the stub
	// copies from the server's into the caller's — the only case
	// where same-domain transfer costs a copy (paper §4.4.2).
	OutCopy
)

func (s OutSemantics) String() string {
	switch s {
	case OutStubAlloc:
		return "stub-alloc"
	case OutServerBuffer:
		return "server-buffer"
	case OutCallerBuffer:
		return "caller-buffer"
	case OutCopy:
		return "copy"
	}
	return "unknown"
}

// NegotiateOut derives out-parameter semantics from both sides'
// allocation attributes (paper §4.4.2). AllocCaller on the client
// means "I provide the buffer"; AllocCallee on the server means "I
// provide the buffer"; anything else defers. A copy is performed
// only if both sides insist on allocating their own buffer.
func NegotiateOut(client, server *pres.ParamAttrs) OutSemantics {
	callerProvides := client.Alloc == pres.AllocCaller
	serverProvides := server.Alloc == pres.AllocCallee
	switch {
	case callerProvides && serverProvides:
		return OutCopy
	case callerProvides:
		return OutCallerBuffer
	case serverProvides:
		return OutServerBuffer
	default:
		return OutStubAlloc
	}
}
