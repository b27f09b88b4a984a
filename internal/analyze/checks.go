package analyze

import "sort"

// CheckInfo documents one flexvet check.
type CheckInfo struct {
	// ID is the stable identifier findings carry.
	ID string
	// Title is a short kebab-case name.
	Title string
	// Severity is the check's default severity (FV005 escalates to
	// error for [unprotected]).
	Severity Severity
	// Fix is the one-line suggestion attached to findings.
	Fix string
	// Doc explains the check in terms of the paper's annotations.
	Doc string
}

// The check registry. IDs are append-only and never reused: tooling
// and suppression lists depend on their stability.
var registry = map[string]CheckInfo{
	"FV001": {
		ID: "FV001", Title: "contract-drift", Severity: SevError,
		Fix: "regenerate both endpoints from one IDL file; the network contract must be byte-identical",
		Doc: "Two endpoints of one connection disagree on the network contract " +
			"(operation set, parameter types/directions, or codec-visible layout). " +
			"Presentations may differ arbitrarily, but the paper's safety argument " +
			"rests on the contract being shared.",
	},
	"FV002": {
		ID: "FV002", Title: "use-after-transfer", Severity: SevError,
		Fix: "drop [dealloc(always)] on the sender or [preserved] on the receiver",
		Doc: "One endpoint frees an in buffer after marshaling ([dealloc(always)]) " +
			"while the peer declares it [preserved] and may keep reading the original " +
			"under a same-domain or shared-buffer transport: a use-after-transfer.",
	},
	"FV003": {
		ID: "FV003", Title: "unique-name-mismatch", Severity: SevWarning,
		Fix: "annotate the port [nonunique] on both endpoints, or on neither",
		Doc: "A port parameter is [nonunique] on one endpoint only: the annotated " +
			"side stops maintaining the unique-name invariant (paper §4.6) that the " +
			"peer still relies on.",
	},
	"FV004": {
		ID: "FV004", Title: "trashable-special-alias", Severity: SevWarning,
		Fix: "drop [trashable], or make the [special] hook copy before the stub trashes the buffer",
		Doc: "[trashable] lets the stub scribble over the buffer during marshaling " +
			"while a [special] hook on the same parameter may retain an alias to it " +
			"(the Linux NFS copyin/copyout path).",
	},
	"FV005": {
		ID: "FV005", Title: "trust-over-network", Severity: SevWarning,
		Fix: "move the trust grant to a same-domain (inproc) presentation, or remove it",
		Doc: "[leaky]/[unprotected] trust is granted on a presentation bound to a " +
			"network transport. Trust buys performance by dropping protection " +
			"(paper §4.5); over a network the peer is outside every protection " +
			"domain and the grant leaks or corrupts across machines. " +
			"[unprotected] escalates to an error.",
	},
	"FV006": {
		ID: "FV006", Title: "callee-alloc-leak", Severity: SevWarning,
		Fix: "use [alloc(caller)] for endpoint-managed storage, or let the stub free with [dealloc(always)]",
		Doc: "[dealloc(never)] combined with an explicit [alloc(callee)] on an out " +
			"buffer: the callee heap-allocates a fresh buffer per call and nothing " +
			"ever frees it. (Plain [dealloc(never)] on a default-allocated out " +
			"buffer is the paper's Figure 5 idiom and is not flagged.)",
	},
	"FV007": {
		ID: "FV007", Title: "dead-annotation", Severity: SevError,
		Fix: "remove the annotation or fix the operation/parameter name",
		Doc: "An annotation names an operation or parameter that does not exist in " +
			"the interface; it can never take effect.",
	},
	"FV008": {
		ID: "FV008", Title: "trashable-preserved-conflict", Severity: SevError,
		Fix: "keep exactly one of [trashable] and [preserved]",
		Doc: "[trashable] (the buffer may be destroyed) and [preserved] (the buffer " +
			"must survive) on the same parameter are mutually exclusive.",
	},
	"FV009": {
		ID: "FV009", Title: "length-is-invalid", Severity: SevError,
		Fix: "point length_is at an integer in parameter of the same operation",
		Doc: "[length_is(p)] must name an integer parameter of the same operation " +
			"that carries the buffer's explicit length (paper Figure 10).",
	},
	"FV010": {
		ID: "FV010", Title: "mutability-on-out", Severity: SevError,
		Fix: "move the annotation to an in or inout parameter",
		Doc: "[trashable]/[preserved] govern what happens to a sender's buffer " +
			"during marshaling; they are meaningless on out-only parameters and " +
			"results.",
	},
	"FV011": {
		ID: "FV011", Title: "nonunique-on-non-port", Severity: SevError,
		Fix: "move [nonunique] to a port parameter",
		Doc: "[nonunique] relaxes the unique-name invariant of port rights; it has " +
			"no meaning on data parameters.",
	},
	"FV012": {
		ID: "FV012", Title: "alloc-on-scalar", Severity: SevError,
		Fix: "move [alloc]/[dealloc] to a buffer-typed parameter",
		Doc: "Allocation annotations govern buffer storage; scalars are copied by " +
			"value and have no storage to manage.",
	},
	"FV016": {
		ID: "FV016", Title: "batchable-copies-frames", Severity: SevWarning,
		Fix: "drop [batchable], or remove the [special] hook / ownership-moving annotation from the operation",
		Doc: "A [batchable] operation's marshaled request is copied into a queue " +
			"and transmitted later, merged with other calls into one session " +
			"frame. A [special] marshal hook runs at enqueue time, not " +
			"transmission time, so hooks with external side effects (port " +
			"movement, shared-buffer handoff) observe a different world than " +
			"the wire does; and ownership-moving annotations ([dealloc(always)] " +
			"on an in parameter, [alloc(callee)] on an out) tie buffer lifetime " +
			"to a call boundary the batcher has dissolved. Either combination " +
			"makes the batching copy observable.",
	},
	"FV017": {
		ID: "FV017", Title: "borrow-escape", Severity: SevError,
		Fix: "copy before retaining: append([]byte(nil), b...) or copy(dst, b)",
		Doc: "A handler retains a []byte that aliases the request frame or a " +
			"pooled call buffer (Call.ArgBytes, Call.Arg, Call.OutBuffer, " +
			"Call.ResultBuffer) past handler return — stored into a field, " +
			"global, channel, or escaping closure. The frame is recycled after " +
			"the reply is marshaled, so the retained slice is silently " +
			"overwritten by a later call. The borrow contract (the CORBA server " +
			"mapping the compiled plans rely on) requires a copy instead.",
	},
	"FV018": {
		ID: "FV018", Title: "idempotent-impure-handler", Severity: SevWarning,
		Fix: "drop [idempotent] and rely on the at-most-once reply cache, or make the handler pure",
		Doc: "A handler bound to an [idempotent] operation writes captured or " +
			"global state. [idempotent] lets the session layer retransmit and " +
			"re-execute the operation without duplicate suppression, so every " +
			"re-execution repeats the write — the retry becomes observable, " +
			"contradicting the annotation. Non-idempotent operations go " +
			"through the (cid,seq) reply cache instead, which executes once.",
	},
	"FV020": {
		ID: "FV020", Title: "dropped-context", Severity: SevWarning,
		Fix: "thread the available context (Call.Context() in handlers, the enclosing ctx parameter in callers) instead of context.Background()",
		Doc: "A fresh context.Background()/context.TODO() is passed where a " +
			"live context is already in scope: a handler ignoring " +
			"Call.Context(), or a caller with a ctx parameter invoking a " +
			"context-aware entry point (InvokeContext, CallContext, " +
			"SessionServer.Handle, ...) with Background. The deadline and " +
			"cancellation the RobustConn layer plumbs end-to-end are silently " +
			"severed at that point.",
	},
	"FV021": {
		ID: "FV021", Title: "trust-elides-ownership-protocol", Severity: SevWarning,
		Fix: "drop the ownership-moving annotation, or match the peer's trust level so the elision actually happens",
		Doc: "Full trust ([trusted]/[unprotected]) composed with per-call " +
			"ownership machinery. A trusted same-domain binding elides the " +
			"per-call buffer ownership protocol — payloads alias leased " +
			"shared-memory slots and never transfer — so an explicit " +
			"ownership-moving annotation ([dealloc(always)] on an in " +
			"buffer, [alloc(callee)] on an out) is silently unenforced on " +
			"the very path the trust grant selects. Conversely, when the " +
			"peer presents untrusted, the combination signature keeps the " +
			"validated ownership path and discards every elision the " +
			"grant was written to buy.",
	},
	"FV023": {
		ID: "FV023", Title: "record-borrow-escape", Severity: SevError,
		Fix: "copy before retaining: append([]byte(nil), b...)",
		Doc: "A raw Sun RPC handler (Server.Register) retains a []byte " +
			"from xdr.Decoder.Opaque or FixedOpaque past handler return. " +
			"Those accessors alias the request record buffer, which the " +
			"server returns to its record pool the moment the handler " +
			"returns — in serial, pool and netpoll mode alike — so the " +
			"retained slice is rewritten by the next record that reuses the " +
			"buffer, on this connection or another. The FV017 borrow " +
			"contract applied to the raw decoder surface.",
	},
	"FV014": {
		ID: "FV014", Title: "idempotent-moves-ownership", Severity: SevWarning,
		Fix: "drop [idempotent] and rely on the at-most-once reply cache, or stop moving ownership in the signature",
		Doc: "An [idempotent] operation may be retransmitted and re-executed " +
			"without duplicate suppression, so re-execution must be harmless — " +
			"but this operation's signature moves buffer ownership: an in " +
			"parameter the stub frees after marshaling ([dealloc(always)]) " +
			"would be double-freed by the retransmit's marshal, and a " +
			"callee-allocated out buffer ([alloc(callee)]) is allocated once " +
			"per execution with only one delivery. Either effect makes the " +
			"retry observable, contradicting the annotation.",
	},
}

// A RetiredCheck is an ID that once named a check and never will
// again: consumers keyed on IDs are told why it stopped firing.
type RetiredCheck struct {
	ID     string
	Reason string
}

// Retired lists the withdrawn check IDs. None may be re-registered.
var Retired = []RetiredCheck{
	{"FV013", "the pooled parallel client it guarded was removed; every client binds [special] hooks the same way"},
	{"FV015", "fired only for the removed pooled parallel client, and the [traced] meter never took the snapshot it warned of"},
	{"FV019", "flagged call sites of the removed pooled-client constructor"},
	{"FV022", "linted [hedged], an annotation no stub or transport read; the PDL parser now rejects it"},
}

// Lookup returns the registry entry for a check ID; external
// analyzer suites (gocheck) use it so their findings carry the
// registry's severity and fix text.
func Lookup(id string) CheckInfo { return registry[id] }

// Checks returns the full registry sorted by ID, for `flexc vet -list`
// and documentation.
func Checks() []CheckInfo {
	out := make([]CheckInfo, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
