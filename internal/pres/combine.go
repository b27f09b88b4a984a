package pres

import (
	"fmt"

	"flexrpc/internal/ir"
)

// A Combination is the combination signature of one binding (paper
// §4.5): a client presentation paired with a server presentation of
// the same contract, once, at bind. It is the only place two endpoints
// are paired. Operations pair by name and parameters by position, so
// each side may declare the operations in its own order and name the
// parameters its own way; the per-parameter transfer decisions of
// §4.4 are derived here from one attribute of each side.
type Combination struct {
	// Ops is indexed by the client's operation index.
	Ops []CombinedOp
	// Trusted: both sides extend full trust ([leaky,unprotected]).
	Trusted bool
	// NonUnique: both sides have relaxed the unique-name invariant for
	// every port they move (PortNaming), vacuously so without ports.
	NonUnique bool
}

// A CombinedOp is one operation as both sides declare it.
type CombinedOp struct {
	// Op is the client's declaration.
	Op *ir.Operation
	// Index is the operation's position in the client's interface, the
	// index of the client's plan and stats; Server is its position in
	// the server's interface, the index to dispatch by.
	Index, Server int
	// Params pairs the parameters by position.
	Params []CombinedParam
	// Outs counts the out and inout parameters.
	Outs int
	// Result pairs the result as an out pseudo-parameter; its IsOut is
	// false when the operation has none.
	Result CombinedParam
}

// A CombinedParam is one parameter position: both sides' attributes
// and the transfer they negotiate.
type CombinedParam struct {
	Type *ir.Type
	// IsIn and IsOut give the direction: to the callee, back to the
	// caller, or both (inout).
	IsIn, IsOut bool
	// In is the negotiated in-parameter transfer, set when IsIn.
	In InSemantics
	// Out is the negotiated out-parameter transfer, set when IsOut.
	Out OutSemantics
	// Private: the server may modify a borrowed in buffer, because the
	// client declared it [trashable].
	Private bool
	// Client and Server are the two sides' attributes.
	Client, Server *ParamAttrs
}

// Combine pairs client with server. It refuses presentations of
// differing contracts (ir.Interface.SameContract), and builds their
// signatures only to say how they differ.
func Combine(client, server *Presentation) (*Combination, error) {
	ci, si := client.Interface, server.Interface
	if !ci.SameContract(si) {
		return nil, fmt.Errorf("pres: contract mismatch:\n  client %s\n  server %s", ci.Signature(), si.Signature())
	}
	c := &Combination{
		Ops:       make([]CombinedOp, len(ci.Ops)),
		Trusted:   client.Trust >= TrustFull && server.Trust >= TrustFull,
		NonUnique: client.PortNaming() && server.PortNaming(),
	}
	n := 0
	for i := range ci.Ops {
		n += len(ci.Ops[i].Params)
	}
	params := make([]CombinedParam, n)
	for i := range ci.Ops {
		op := &ci.Ops[i]
		// The same contract gives each client operation a server
		// operation of the same name with the same parameter list.
		j := 0
		for si.Ops[j].Name != op.Name {
			j++
		}
		// Both presentations are indexed like their interfaces.
		cp, sp := &client.Ops[i], &server.Ops[j]
		o := &c.Ops[i]
		o.Op, o.Index, o.Server = op, i, j
		o.Params, params = params[:len(op.Params):len(op.Params)], params[len(op.Params):]
		for k := range op.Params {
			o.Params[k] = combineParam(op.Params[k].Type, op.Params[k].Dir, &cp.Params[k], &sp.Params[k])
			if o.Params[k].IsOut {
				o.Outs++
			}
		}
		if op.HasResult() {
			o.Result = combineParam(op.Result, Out, cp.Result(), sp.Result())
		}
	}
	return c, nil
}

func combineParam(t *ir.Type, dir ir.Direction, client, server *ParamAttrs) CombinedParam {
	p := CombinedParam{
		Type:   t,
		IsIn:   dir == In || dir == InOut,
		IsOut:  dir == Out || dir == InOut,
		Client: client,
		Server: server,
	}
	if p.IsIn {
		p.In = negotiateIn(client, server)
		p.Private = client.Trashable
	}
	if p.IsOut {
		p.Out = negotiateOut(client, server)
	}
	return p
}

// Same-domain invocation semantics (paper §4.4): when client and
// server share a protection domain, RPC short-circuits to a procedure
// call, but the RPC system must still decide how to transfer each
// parameter without breaking either side's expectations. These
// decisions cannot themselves be presentation attributes — they
// involve both endpoints — but they are derived from presentation
// attributes, one from each side, which is what the functions below
// compute.

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

// negotiateIn derives in-parameter semantics from the client's and
// server's attributes (paper §4.4.1): a copy is needed only if
// *neither* the client declared the buffer [trashable] *nor* the
// server promised to keep it [preserved].
func negotiateIn(client, server *ParamAttrs) InSemantics {
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

// negotiateOut derives out-parameter semantics from both sides'
// allocation attributes (paper §4.4.2). AllocCaller on the client
// means "I provide the buffer"; AllocCallee on the server means "I
// provide the buffer"; anything else defers. A copy is performed
// only if both sides insist on allocating their own buffer.
func negotiateOut(client, server *ParamAttrs) OutSemantics {
	callerProvides := client.Alloc == AllocCaller
	serverProvides := server.Alloc == AllocCallee
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
