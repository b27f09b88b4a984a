// Command flexc is the flexrpc stub compiler: the three-stage
// pipeline of the paper's §3 behind a CLI.
//
//	flexc -frontend corba -backend go -package fileio -o fileio.go fileio.idl
//	flexc -frontend sun -pdl client.pdl -backend pres nfs.x
//	flexc -backend sig fileio.idl
//	flexc vet -pdl client.pdl -peer-pdl server.pdl fileio.idl
//
// Front-ends: corba (CORBA IDL), sun (Sun RPC .x files), mig (.defs).
// Back-ends:  go   — generate a typed Go client stub and server skeleton
//
//	pres — print the computed presentation (after any PDL)
//	sig  — print the canonical network contract
//
// The vet subcommand runs flexvet, the cross-endpoint presentation
// analyzer and annotation lint pass; see `flexc vet -list` for the
// check registry.
//
// The stats subcommand compiles an interface, drives N calls per
// operation through the marshal runtime against default handlers,
// and dumps the observability layer's expvar-style counters —
// per-op calls and latency, copy/alloc/wire meters, and (with
// -trace) the per-call trace ring:
//
//	flexc stats -calls 1000 -payload 1024 fileio.idl
//	flexc stats -pdl client.pdl -json fileio.idl
//
// The load subcommand drives a compiled interface with the flexload
// generator against an in-process shared-pool server — N connections,
// open- or closed-loop pacing, goodput and latency percentiles; with
// -check it exits non-zero unless goodput is positive and the run is
// error-free:
//
//	flexc load -conns 256 -measure 1s fileio.idl
//	flexc load -mode open -rate 5000 -json -check fileio.idl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"flexrpc/internal/analyze"
	"flexrpc/internal/analyze/gocheck"
	"flexrpc/internal/codegen"
	"flexrpc/internal/core"
	"flexrpc/internal/ir"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
	frt "flexrpc/internal/runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flexc:", err)
		os.Exit(exitCode(err))
	}
}

// An exitErr pins the process exit status. The vet subcommand's
// contract is three-way: 0 clean, 1 findings, 2 when the analysis
// itself could not run (load failures, bad invocations, analyzer
// panics).
type exitErr struct {
	code int
	err  error
}

func (e *exitErr) Error() string { return e.err.Error() }
func (e *exitErr) Unwrap() error { return e.err }

// findings wraps "the checks ran and found problems" (exit 1).
func findings(err error) error { return &exitErr{code: 1, err: err} }

// failure wraps "the checks could not run" (exit 2).
func failure(err error) error { return &exitErr{code: 2, err: err} }

func exitCode(err error) int {
	var ee *exitErr
	if errors.As(err, &ee) {
		return ee.code
	}
	return 1
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "vet" {
		return runVet(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "stats" {
		return runStats(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "load" {
		return runLoad(args[1:], stdout)
	}
	fs := flag.NewFlagSet("flexc", flag.ContinueOnError)
	var (
		frontend  = fs.String("frontend", "corba", "IDL front-end: corba, sun or mig")
		ifaceName = fs.String("interface", "", "interface to compile (required when the file has several)")
		pdlFile   = fs.String("pdl", "", "PDL file modifying the presentation")
		style     = fs.String("style", "", "default presentation style: corba, sun or mig")
		backend   = fs.String("backend", "go", "back-end: go, pres or sig")
		pkg       = fs.String("package", "", "package name for the go back-end")
		out       = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: flexc [flags] <idl-file>")
	}
	idlPath := fs.Arg(0)
	src, err := os.ReadFile(idlPath)
	if err != nil {
		return err
	}
	fe, err := core.FrontendByName(*frontend)
	if err != nil {
		return err
	}
	opts := core.Options{
		Frontend:  fe,
		Filename:  idlPath,
		Source:    string(src),
		Interface: *ifaceName,
	}
	if opts.Style, err = parseStyle(*style); err != nil {
		return err
	}
	if *pdlFile != "" {
		pdlSrc, err := os.ReadFile(*pdlFile)
		if err != nil {
			return err
		}
		opts.PDL = string(pdlSrc)
		opts.PDLFilename = *pdlFile
	}
	compiled, err := core.Compile(opts)
	if err != nil {
		return err
	}

	var output []byte
	switch *backend {
	case "go":
		output, err = codegen.Generate(compiled, codegen.Options{Package: *pkg})
		if err != nil {
			return err
		}
	case "sig":
		output = []byte(compiled.Iface.Signature() + "\n")
	case "pres":
		output = []byte(describePresentation(compiled.Pres))
	default:
		return fmt.Errorf("unknown back-end %q (want go, pres or sig)", *backend)
	}

	if *out == "" {
		_, err = stdout.Write(output)
		return err
	}
	return os.WriteFile(*out, output, 0o644)
}

// parseStyle maps a CLI style name to presentation rules; empty
// keeps the front-end's natural default.
func parseStyle(name string) (pres.Style, error) {
	switch name {
	case "", "corba":
		return pres.StyleCORBA, nil
	case "sun":
		return pres.StyleSun, nil
	case "mig":
		return pres.StyleMIG, nil
	}
	return 0, fmt.Errorf("unknown style %q", name)
}

// runVet is the `flexc vet` subcommand: flexvet over one or two
// endpoints of an interface, the Go code bound to it, or the
// compiled plan's static certificate.
//
//	flexc vet fileio.idl
//	flexc vet -pdl client.pdl -peer-pdl server.pdl -transport suntcp fileio.idl
//	flexc vet -peer-idl server_copy.idl fileio.idl        # contract drift
//	flexc vet -go ./...                                   # Go-side checks
//	flexc vet -go -idl f.idl -pdl server.pdl ./srv/...    # + contract binding
//	flexc vet -certify -pdl client.pdl fileio.idl         # plan certificate
//	flexc vet -list                                       # check registry
//
// The first endpoint (the "client") is the IDL file's default
// presentation with -pdl applied; the peer (the "server") exists when
// -peer-pdl or -peer-idl is given, built from -peer-idl (defaulting
// to the same IDL file) with -peer-pdl applied. PDL files are applied
// loosely: annotations naming unknown operations or parameters become
// positioned FV007 findings instead of hard errors, so one run
// reports every problem.
func runVet(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexc vet", flag.ContinueOnError)
	var (
		frontend      = fs.String("frontend", "corba", "IDL front-end: corba, sun or mig")
		ifaceName     = fs.String("interface", "", "interface to analyze (required when the file has several)")
		style         = fs.String("style", "", "default presentation style: corba, sun or mig")
		pdlFile       = fs.String("pdl", "", "PDL file for this endpoint's presentation")
		transport     = fs.String("transport", "", "transport this endpoint binds to: inproc, machipc, fbufrpc or suntcp")
		peerPDL       = fs.String("peer-pdl", "", "PDL file for the peer endpoint (enables the cross-endpoint pass)")
		peerIDL       = fs.String("peer-idl", "", "the peer's copy of the contract (defaults to the same IDL file)")
		peerFrontend  = fs.String("peer-frontend", "", "front-end for -peer-idl (defaults to -frontend)")
		peerTransport = fs.String("peer-transport", "", "transport the peer binds to")
		goMode        = fs.Bool("go", false, "analyze Go packages (FV017-FV020); arguments are package patterns")
		goDir         = fs.String("dir", ".", "module root the -go package patterns resolve in")
		goIDL         = fs.String("idl", "", "contract IDL binding annotation-dependent -go checks (with -pdl)")
		certify       = fs.Bool("certify", false, "emit the compiled plan's static certificate instead of findings")
		codecName     = fs.String("codec", "xdr", "wire codec for -certify: xdr, cdr or cdr-le")
		jsonOut       = fs.Bool("json", false, "emit NDJSON diagnostics, one object per line")
		werror        = fs.Bool("Werror", false, "treat warning-severity findings as fatal")
		list          = fs.Bool("list", false, "print the check registry and exit")
	)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage:
  flexc vet [flags] <idl-file>                presentation checks (FV001-FV016)
  flexc vet -go [flags] [package-pattern]...  Go contract checks (FV017-FV020)
  flexc vet -certify [flags] <idl-file>       static plan certificate (JSON)

exit status: 0 clean; 1 findings (error severity, or any finding with
-Werror) or a failed certificate invariant; 2 when the analysis could
not run (unreadable input, package load failure, analyzer panic).

flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return failure(err)
	}
	if *list {
		for _, ci := range analyze.Checks() {
			fmt.Fprintf(stdout, "%s %-28s %-8s %s\n", ci.ID, ci.Title, ci.Severity, ci.Doc)
		}
		for _, r := range analyze.Retired {
			fmt.Fprintf(stdout, "%s %-28s %-8s %s\n", r.ID, "(retired)", "-", r.Reason)
		}
		return nil
	}
	sty, err := parseStyle(*style)
	if err != nil {
		return failure(err)
	}

	if *goMode {
		return runVetGo(fs.Args(), *goDir, *goIDL, *frontend, *ifaceName, sty, *pdlFile,
			stdout, *jsonOut, *werror)
	}
	if fs.NArg() != 1 {
		return failure(fmt.Errorf("usage: flexc vet [flags] <idl-file>"))
	}
	compiled, err := compileFor(fs.Arg(0), *frontend, *ifaceName, sty)
	if err != nil {
		return failure(err)
	}
	client, err := vetEndpoint(compiled.Pres, *pdlFile)
	if err != nil {
		return failure(err)
	}
	if *certify {
		return runVetCertify(client, *codecName, stdout)
	}
	eps := []analyze.Endpoint{{Pres: client, Transport: *transport, Label: "client"}}

	if *peerPDL != "" || *peerIDL != "" {
		peerCompiled := compiled
		if *peerIDL != "" {
			pf := *peerFrontend
			if pf == "" {
				pf = *frontend
			}
			if peerCompiled, err = compileFor(*peerIDL, pf, *ifaceName, sty); err != nil {
				return failure(err)
			}
		}
		server, err := vetEndpoint(peerCompiled.Pres, *peerPDL)
		if err != nil {
			return failure(err)
		}
		eps = append(eps, analyze.Endpoint{Pres: server, Transport: *peerTransport, Label: "server"})
	}

	return emitVet(stdout, analyze.CheckEndpoints(eps), *jsonOut, *werror)
}

// emitVet renders findings (vet style, or NDJSON with -json) and maps
// them to the exit contract: error severity always fails, warnings
// fail under -Werror.
func emitVet(stdout io.Writer, diags []analyze.Diagnostic, jsonOut, werror bool) error {
	if jsonOut {
		out, err := analyze.RenderLines(diags)
		if err != nil {
			return failure(err)
		}
		if _, err := stdout.Write(out); err != nil {
			return failure(err)
		}
	} else if len(diags) > 0 {
		fmt.Fprint(stdout, analyze.Render(diags))
	}
	fatal := 0
	for _, d := range diags {
		if d.Severity == analyze.SevError || (werror && d.Severity >= analyze.SevWarning) {
			fatal++
		}
	}
	if fatal == len(diags) && fatal > 0 {
		return findings(fmt.Errorf("vet: %d finding(s)", fatal))
	}
	if fatal > 0 {
		return findings(fmt.Errorf("vet: %d fatal finding(s) (%d total)", fatal, len(diags)))
	}
	return nil
}

// runVetGo loads Go packages and runs the gocheck analyzer suite
// (FV017-FV020) over them, optionally with a PDL contract bound.
func runVetGo(patterns []string, dir, idlFile, frontend, ifaceName string, sty pres.Style,
	pdlFile string, stdout io.Writer, jsonOut, werror bool) error {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var contract *pres.Presentation
	if idlFile != "" {
		compiled, err := compileFor(idlFile, frontend, ifaceName, sty)
		if err != nil {
			return failure(err)
		}
		if contract, err = vetEndpoint(compiled.Pres, pdlFile); err != nil {
			return failure(err)
		}
	}
	pkgs, err := gocheck.Load(dir, patterns...)
	if err != nil {
		return failure(err)
	}
	trim, err := filepath.Abs(dir)
	if err != nil {
		return failure(err)
	}
	checker := &gocheck.Checker{Contract: contract, TrimDir: trim}
	diags, err := checker.CheckPackages(pkgs)
	if err != nil {
		return failure(err)
	}
	return emitVet(stdout, diags, jsonOut, werror)
}

// runVetCertify compiles the presentation's marshal plan and emits
// its static certificate after proving the bounds invariant. Plans
// that fail to compile (e.g. [special] parameters, which need hook
// code) are load failures, not findings.
func runVetCertify(p *pres.Presentation, codecName string, stdout io.Writer) error {
	var codec frt.Codec
	switch codecName {
	case "xdr":
		codec = frt.XDRCodec
	case "cdr":
		codec = frt.CDRCodec
	case "cdr-le":
		codec = frt.CDRCodecLE
	default:
		return failure(fmt.Errorf("unknown codec %q (want xdr, cdr or cdr-le)", codecName))
	}
	plan, err := frt.NewPlan(p, codec, nil)
	if err != nil {
		return failure(err)
	}
	cert := plan.Certificate()
	if err := cert.VerifyBounds(); err != nil {
		return findings(err)
	}
	out, err := cert.Render()
	if err != nil {
		return failure(err)
	}
	_, err = stdout.Write(out)
	return err
}

// statsLoop is the stats subcommand's transport: a serial loopback
// that hands each marshaled request to the dispatcher and returns
// the marshaled reply, so the full encode/decode path — and with it
// every meter — runs in-process.
type statsLoop struct {
	disp *frt.Dispatcher
	plan *frt.Plan
	enc  frt.Encoder
}

func (l *statsLoop) Call(opIdx int, req, replyBuf []byte) ([]byte, error) {
	l.enc.Reset()
	l.disp.ServeMessage(l.plan, opIdx, req, l.enc)
	return append(replyBuf[:0], l.enc.Bytes()...), nil
}

func (l *statsLoop) Close() error { return nil }

// runStats is the `flexc stats` subcommand: compile the interface,
// install default handlers that answer every operation with zero
// values, drive -calls marshaled round trips per operation, and dump
// the client endpoint's counters.
func runStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("flexc stats", flag.ContinueOnError)
	var (
		frontend  = fs.String("frontend", "corba", "IDL front-end: corba, sun or mig")
		ifaceName = fs.String("interface", "", "interface to drive (required when the file has several)")
		pdlFile   = fs.String("pdl", "", "PDL file modifying the presentation")
		style     = fs.String("style", "", "default presentation style: corba, sun or mig")
		calls     = fs.Int("calls", 100, "calls per operation")
		payload   = fs.Int("payload", 64, "bytes per sequence<octet> in-argument")
		traceCap  = fs.Int("trace", 0, "trace ring capacity (0 disables call tracing)")
		jsonOut   = fs.Bool("json", false, "emit the snapshot as JSON instead of expvar text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: flexc stats [flags] <idl-file>")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fe, err := core.FrontendByName(*frontend)
	if err != nil {
		return err
	}
	opts := core.Options{
		Frontend:  fe,
		Filename:  fs.Arg(0),
		Source:    string(src),
		Interface: *ifaceName,
	}
	if opts.Style, err = parseStyle(*style); err != nil {
		return err
	}
	if *pdlFile != "" {
		pdlSrc, err := os.ReadFile(*pdlFile)
		if err != nil {
			return err
		}
		opts.PDL = string(pdlSrc)
		opts.PDLFilename = *pdlFile
	}
	compiled, err := core.Compile(opts)
	if err != nil {
		return err
	}

	disp := frt.NewDispatcher(compiled.Pres)
	for i := range compiled.Iface.Ops {
		op := &compiled.Iface.Ops[i]
		disp.Handle(op.Name, func(c *frt.Call) error {
			for j := range op.Params {
				prm := &op.Params[j]
				if prm.Dir == ir.Out || prm.Dir == ir.InOut {
					c.SetOut(j, frt.ZeroValue(prm.Type))
				}
			}
			if op.HasResult() {
				c.SetResult(frt.ZeroValue(op.Result))
			}
			return nil
		})
	}
	plan, err := disp.Plan(frt.XDRCodec)
	if err != nil {
		return err
	}
	client, err := frt.NewClient(compiled.Pres, frt.XDRCodec, &statsLoop{
		disp: disp, plan: plan, enc: frt.XDRCodec.NewEncoder(),
	}, nil)
	if err != nil {
		return err
	}
	e := client.EnableStats()
	if *traceCap > 0 {
		e.EnableTracing(*traceCap)
	}

	for i := range compiled.Iface.Ops {
		op := &compiled.Iface.Ops[i]
		var callArgs []frt.Value
		for j := range op.Params {
			prm := &op.Params[j]
			v := frt.ZeroValue(prm.Type)
			if prm.Type.Kind == ir.Bytes && *payload > 0 &&
				(prm.Dir == ir.In || prm.Dir == ir.InOut) {
				v = make([]byte, *payload)
			}
			callArgs = append(callArgs, v)
		}
		for n := 0; n < *calls; n++ {
			if _, _, err := client.Invoke(op.Name, callArgs, nil, nil); err != nil {
				return fmt.Errorf("stats: %s: %w", op.Name, err)
			}
		}
	}

	snap := client.Stats()
	if *jsonOut {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", out)
		return nil
	}
	fmt.Fprint(stdout, snap.Text())
	return nil
}

// compileFor runs the front-end and default-presentation stages for
// one endpoint's copy of the contract.
func compileFor(path, frontend, iface string, style pres.Style) (*core.Compiled, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fe, err := core.FrontendByName(frontend)
	if err != nil {
		return nil, err
	}
	return core.Compile(core.Options{
		Frontend:  fe,
		Filename:  path,
		Source:    string(src),
		Interface: iface,
		Style:     style,
	})
}

// vetEndpoint applies an optional PDL file loosely, so annotation
// mistakes surface as analyzer findings rather than fatal errors. It
// annotates a clone: both endpoints of a vet may start from one base.
func vetEndpoint(base *pres.Presentation, pdlPath string) (*pres.Presentation, error) {
	if pdlPath == "" {
		return base, nil
	}
	src, err := os.ReadFile(pdlPath)
	if err != nil {
		return nil, err
	}
	p := base.Clone()
	if err := pdl.ApplyLoose(p, pdlPath, string(src)); err != nil {
		return nil, err
	}
	return p, nil
}

// describePresentation renders a presentation in PDL-like syntax.
func describePresentation(p *pres.Presentation) string {
	s := fmt.Sprintf("// presentation of %s (style %s, trust %s)\ninterface %s {\n",
		p.Interface.Name, p.Style, p.Trust, p.Interface.Name)
	for _, op := range p.ByName() {
		s += "    "
		if op.CommStatus {
			s += "[comm_status] "
		}
		s += op.Name + "("
		for i, prm := range op.ByName() {
			if i > 0 {
				s += ", "
			}
			if attrs := attrList(prm.Attrs); attrs != "" {
				s += attrs + " "
			}
			s += prm.Name
		}
		s += ");\n"
	}
	return s + "};\n"
}

func attrList(a *pres.ParamAttrs) string {
	var parts []string
	if a.Special {
		parts = append(parts, "special")
	}
	if a.Trashable {
		parts = append(parts, "trashable")
	}
	if a.Preserved {
		parts = append(parts, "preserved")
	}
	if a.NonUnique {
		parts = append(parts, "nonunique")
	}
	if a.Traced {
		parts = append(parts, "traced")
	}
	if a.LengthIs != "" {
		parts = append(parts, "length_is("+a.LengthIs+")")
	}
	switch a.Alloc {
	case pres.AllocCaller:
		parts = append(parts, "alloc(caller)")
	case pres.AllocCallee:
		parts = append(parts, "alloc(callee)")
	}
	switch a.Dealloc {
	case pres.DeallocAlways:
		parts = append(parts, "dealloc(always)")
	case pres.DeallocNever:
		parts = append(parts, "dealloc(never)")
	}
	if len(parts) == 0 {
		return ""
	}
	out := "["
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out + "]"
}
