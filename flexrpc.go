// Package flexrpc is an RPC stub compiler and runtime with flexible
// presentation support, a reproduction of Ford, Hibler and Lepreau,
// "Using Annotated Interface Definitions to Optimize RPC" (University
// of Utah, UUCS-95-014, 1995).
//
// The central idea: an RPC *interface* — the network contract between
// client and server — is distinct from its *presentation* — the
// programmer's contract between the stubs and local code. The
// compiler is split into three stages: an IDL front-end (CORBA
// IDL, Sun RPC .x, or MIG .defs) produces the neutral contract; the presentation
// stage computes a default presentation by fixed rules and applies an
// optional Presentation Definition Language (PDL) file; back-ends
// (the interpreted runtime stubs, or the Go source generator) consume
// the pair. Each endpoint of a connection may hold an arbitrarily
// different presentation of the same contract, and transports exploit
// the relaxed semantics presentations declare — buffer
// ownership ([dealloc], [alloc]), mutability ([trashable],
// [preserved]), custom marshal paths ([special]), naming
// ([nonunique]), and trust ([leaky], [unprotected]).
//
// Quick start:
//
//	c, err := flexrpc.Compile(flexrpc.Options{
//	    Frontend: flexrpc.FrontendCORBA,
//	    Filename: "fileio.idl",
//	    Source:   src,
//	})
//	disp := flexrpc.NewDispatcher(c.Pres)
//	disp.Handle("read", func(call *flexrpc.Call) error { ... })
//	conn, err := flexrpc.ConnectInProc(c.Pres, disp) // same-domain
//	outs, ret, err := conn.Invoke("read", []flexrpc.Value{uint32(64)}, nil, nil)
//
// See the examples directory for transport-crossing uses (simulated
// Mach IPC, fbufs, Sun RPC over TCP) and DESIGN.md for the map from
// the paper's experiments to this repository.
package flexrpc

import (
	"flexrpc/internal/analyze"
	"flexrpc/internal/core"
	"flexrpc/internal/pres"
	"flexrpc/internal/runtime"
	"flexrpc/internal/stats"
	"flexrpc/internal/sunrpc"
	"flexrpc/internal/transport/inproc"
	"flexrpc/internal/xdr"
)

// Re-exported compiler types.
type (
	// Options configure one compilation; see Compile.
	Options = core.Options
	// Compiled is a parsed interface plus one endpoint's presentation.
	Compiled = core.Compiled
	// Frontend selects the IDL dialect.
	Frontend = core.Frontend
)

// Front-end selectors.
const (
	FrontendCORBA  = core.FrontendCORBA
	FrontendSunXDR = core.FrontendSunXDR
	FrontendMIG    = core.FrontendMIG
)

// Presentation styles (default-rule sets).
const (
	StyleCORBA = pres.StyleCORBA
	StyleSun   = pres.StyleSun
	StyleMIG   = pres.StyleMIG
)

// Re-exported presentation types.
type (
	// Presentation is one endpoint's programmer's contract.
	Presentation = pres.Presentation
	// ParamAttrs are the presentation attributes of one parameter.
	ParamAttrs = pres.ParamAttrs
	// Trust is an endpoint's trust in its peer.
	Trust = pres.Trust
)

// Trust levels.
const (
	TrustNone  = pres.TrustNone
	TrustLeaky = pres.TrustLeaky
	TrustFull  = pres.TrustFull
)

// Buffer allocation policies (presentation attributes).
const (
	AllocAuto   = pres.AllocAuto
	AllocCaller = pres.AllocCaller
	AllocCallee = pres.AllocCallee
)

// Buffer deallocation policies (presentation attributes).
const (
	DeallocDefault = pres.DeallocDefault
	DeallocAlways  = pres.DeallocAlways
	DeallocNever   = pres.DeallocNever
)

// Re-exported runtime types.
type (
	// Value is the runtime representation of one IR-typed value.
	Value = runtime.Value
	// PortName is a transferred capability reference.
	PortName = runtime.PortName
	// Invoker is anything operations can be called through.
	Invoker = runtime.Invoker
	// Call carries one invocation to a server work function.
	Call = runtime.Call
	// Handler is a server work function.
	Handler = runtime.Handler
	// Dispatcher is the server half of the stubs.
	Dispatcher = runtime.Dispatcher
	// Client executes calls by marshaling onto a transport.
	Client = runtime.Client
	// Codec is a wire encoding (XDR or CDR).
	Codec = runtime.Codec
	// SpecialHooks are programmer-supplied marshal routines for
	// [special] parameters.
	SpecialHooks = runtime.SpecialHooks
	// Conn is a client-side message transport connection.
	Conn = runtime.Conn
	// Encoder appends wire-format primitives ([special] hooks marshal
	// through it).
	Encoder = runtime.Encoder
	// Decoder reads wire-format primitives ([special] hooks unmarshal
	// through it).
	Decoder = runtime.Decoder
)

// Re-exported Sun RPC server-runtime types (the record-marked TCP
// transport; see DESIGN.md §8). The raw ProcHandler surface decodes
// straight out of the record buffer, so handlers obey the borrow
// contract flexvet's FV023 check enforces.
type (
	// SunServer is the record-marked Sun RPC (RFC 5531) server.
	SunServer = sunrpc.Server
	// SunProcHandler is a raw per-procedure handler.
	SunProcHandler = sunrpc.ProcHandler
	// SunDecoder reads XDR primitives from a request record.
	SunDecoder = xdr.Decoder
	// SunEncoder appends XDR primitives to a reply record.
	SunEncoder = xdr.Encoder
)

// NewSunServer builds a Sun RPC server for one program/version.
func NewSunServer(prog, vers uint32) *SunServer { return sunrpc.NewServer(prog, vers) }

// Re-exported robustness-layer types (deadlines, retries,
// at-most-once execution; see DESIGN.md §6).
type (
	// ContextConn is a Conn honoring per-call deadlines natively.
	ContextConn = runtime.ContextConn
	// ContextInvoker is an Invoker with per-call deadlines.
	ContextInvoker = runtime.ContextInvoker
	// RetryPolicy bounds the retry loop (backoff, jitter, attempts).
	RetryPolicy = runtime.RetryPolicy
	// RobustOptions configure a RobustConn.
	RobustOptions = runtime.RobustOptions
	// RobustConn wraps a Conn with framing, CRCs, deadlines and
	// idempotency-aware retry; pair with a SessionServer.
	RobustConn = runtime.RobustConn
	// SessionServer is the server half of the session layer.
	SessionServer = runtime.SessionServer
	// ReplyCache memoizes replies for at-most-once execution.
	ReplyCache = runtime.ReplyCache
	// PanicError reports a recovered server work-function panic.
	PanicError = runtime.PanicError
	// BatchOptions size RobustConn.EnableBatching's small-call merger
	// for [batchable] operations.
	BatchOptions = runtime.BatchOptions
)

// Re-exported overload-resilience types (admission control with
// wire-visible pushback, retry budgets, graceful drain; see DESIGN.md
// §6).
type (
	// Admission is a server-side admission controller; install with
	// SessionServer.SetAdmission. Decisions run before decode and
	// allocate nothing.
	Admission = runtime.Admission
	// AdmissionOptions configure an Admission controller: the inflight
	// cap, the pushback frames' advisory RetryAfter, and the stats
	// endpoint that counts sheds and drain rejects.
	AdmissionOptions = runtime.AdmissionOptions
	// RetryBudget is a client-side token bucket bounding retry
	// amplification under pushback; share one across the conns that
	// target one backend.
	RetryBudget = runtime.RetryBudget
	// ErrOverloaded is a server pushback surfaced to the caller, with
	// the server's advisory RetryAfter; errors.Is(err, ErrDraining)
	// discriminates a drain from momentary load.
	ErrOverloaded = runtime.ErrOverloaded
)

// ErrDraining matches pushback from a draining server.
var ErrDraining = runtime.ErrDraining

// NewAdmission builds an admission controller from o.
func NewAdmission(o AdmissionOptions) *Admission { return runtime.NewAdmission(o) }

// NewRetryBudget returns a retry budget holding up to capacity
// retries, refilled at ratio tokens per attempt.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	return runtime.NewRetryBudget(capacity, ratio)
}

// NewRobustConn wraps a transport connection with the client half of
// the session layer for presentation p.
func NewRobustConn(inner Conn, p *Presentation, opts RobustOptions) *RobustConn {
	return runtime.NewRobustConn(inner, p, opts)
}

// NewReplyCacheSharded returns an at-most-once reply cache retaining up
// to capacity completed replies, its state split across independently
// locked shards (rounded up to a power of two; shards <= 0 derives a
// count from GOMAXPROCS), so concurrent worker-pool dispatch doesn't
// serialize on one lock.
func NewReplyCacheSharded(capacity, shards int) *ReplyCache {
	return runtime.NewReplyCacheSharded(capacity, shards)
}

// NewSessionServer builds the server half of the session layer over
// disp, under disp's server plan for codec (compiled with the hooks
// given to Dispatcher.SetHooks). cache may be nil, which disables
// duplicate suppression.
func NewSessionServer(disp *Dispatcher, codec Codec, cache *ReplyCache) (*SessionServer, error) {
	plan, err := disp.Plan(codec)
	if err != nil {
		return nil, err
	}
	return runtime.NewSessionServer(disp, plan, cache), nil
}

// Retryable reports whether a failed call may safely be retried
// under the session layer.
func Retryable(err error) bool { return runtime.Retryable(err) }

// Re-exported observability types (per-op counters, latency
// histograms, copy/alloc meters, call tracing; see DESIGN.md §7).
// Client.EnableStats, Dispatcher.EnableStats and the inproc Conn's
// EnableStats attach an endpoint; with stats disabled every hot-path
// hook is one nil check and zero allocations.
type (
	// StatsEndpoint accumulates one side's counters and meters.
	StatsEndpoint = stats.Endpoint
	// StatsSnapshot is a point-in-time copy of an endpoint, with an
	// expvar-style Text rendering and a Merge for fan-in.
	StatsSnapshot = stats.Snapshot
	// TraceEvent is one recorded per-call trace stage.
	TraceEvent = stats.TraceEvent
	// Clock abstracts time for the session layer's backoff and
	// deadlines; WallClock is the default, FakeClock drives tests.
	Clock = runtime.Clock
	// FakeClock is a deterministic Clock for testing retry schedules.
	FakeClock = runtime.FakeClock
)

// WallClock is the real-time Clock the session layer uses by default.
var WallClock = runtime.WallClock

// NewFakeClock returns a deterministic Clock for tests.
func NewFakeClock() *FakeClock { return runtime.NewFakeClock() }

// NewStats builds a standalone stats endpoint over the given
// operation names, for callers wiring several components to one
// endpoint by hand.
func NewStats(names []string) *StatsEndpoint { return stats.New(names) }

// Wire codecs.
var (
	// XDRCodec marshals in Sun XDR.
	XDRCodec = runtime.XDRCodec
	// CDRCodec marshals in CORBA CDR (big-endian).
	CDRCodec = runtime.CDRCodec
	// CDRCodecLE marshals in CORBA CDR, little-endian.
	CDRCodecLE = runtime.CDRCodecLE
)

// Re-exported flexvet (static analyzer) types.
type (
	// Diagnostic is one flexvet finding: stable check ID, severity,
	// source position and a one-line fix suggestion.
	Diagnostic = analyze.Diagnostic
	// Severity grades a Diagnostic.
	Severity = analyze.Severity
	// Endpoint is one side of a connection as the analyzer sees it:
	// a presentation plus an optional transport binding and label.
	Endpoint = analyze.Endpoint
)

// Diagnostic severities.
const (
	SevInfo    = analyze.SevInfo
	SevWarning = analyze.SevWarning
	SevError   = analyze.SevError
)

// Re-exported plan-certification types (`flexc vet -certify`). A
// certificate is derived from the compiled marshal plan's actual
// step lists, so its landing modes and allocation bounds describe
// what the hot path will really do.
type (
	// PlanCert certifies one compiled plan: codec, interface
	// signature, and one OpCert per operation. VerifyBounds proves
	// every variable-length decode bounded; each OpCert's per-side
	// allocation bounds state the 0-alloc invariant statically.
	PlanCert = runtime.PlanCert
	// OpCert certifies one operation's step lists and per-side
	// allocation bounds.
	OpCert = runtime.OpCert
	// StepCert certifies one marshal step: phase, landing mode,
	// whether it allocates, and its max-decode bound.
	StepCert = runtime.StepCert
)

// Certificate step phases and landing modes.
const (
	PhaseReqEncode = runtime.PhaseReqEncode
	PhaseReqDecode = runtime.PhaseReqDecode
	PhaseRepEncode = runtime.PhaseRepEncode
	PhaseRepDecode = runtime.PhaseRepDecode

	LandScalar  = runtime.LandScalar
	LandBorrow  = runtime.LandBorrow
	LandCaller  = runtime.LandCaller
	LandOwn     = runtime.LandOwn
	LandSpecial = runtime.LandSpecial
	LandNone    = runtime.LandNone
)

// Certify compiles the marshal plan for a presentation and returns
// its certificate.
func Certify(p *Presentation, codec Codec, hooks SpecialHooks) (*PlanCert, error) {
	plan, err := runtime.NewPlan(p, codec, hooks)
	if err != nil {
		return nil, err
	}
	return plan.Certificate(), nil
}

// Check runs flexvet over one or more presentations of a shared
// interface: annotation safety lints on each, cross-endpoint
// compatibility (contract identity, unsafe annotation pairs) on
// every pair. Diagnostics come back sorted by source position.
func Check(ps ...*Presentation) []Diagnostic { return analyze.Check(ps...) }

// CheckEndpoints is Check with transport bindings and endpoint
// labels, enabling the transport-aware checks (FV005).
func CheckEndpoints(eps []Endpoint) []Diagnostic { return analyze.CheckEndpoints(eps) }

// Compile runs the front-end and presentation stages.
func Compile(o Options) (*Compiled, error) { return core.Compile(o) }

// NewDispatcher creates a server dispatcher for the presentation.
func NewDispatcher(p *Presentation) *Dispatcher { return runtime.NewDispatcher(p) }

// NewClient builds a marshal-based client over a transport
// connection.
func NewClient(p *Presentation, codec Codec, conn runtime.Conn, hooks SpecialHooks) (*Client, error) {
	return runtime.NewClient(p, codec, conn, hooks)
}

// ConnectInProc binds a client presentation to a dispatcher in the
// same protection domain; calls short-circuit to negotiated direct
// invocations (paper §4.4).
func ConnectInProc(clientPres *Presentation, disp *Dispatcher) (Invoker, error) {
	return inproc.Connect(clientPres, disp)
}
