package flexrpc_test

// Tests of the public facade, written against the exported API only.

import (
	"errors"
	"strings"
	"testing"

	"flexrpc"
)

const calcIDL = `
interface Calc {
    long add(in long a, in long b);
    sequence<octet> fill(in unsigned long n);
};`

func compileCalc(t *testing.T) *flexrpc.Compiled {
	t.Helper()
	c, err := flexrpc.Compile(flexrpc.Options{
		Frontend: flexrpc.FrontendCORBA,
		Filename: "calc.idl",
		Source:   calcIDL,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicEndToEnd(t *testing.T) {
	c := compileCalc(t)
	disp := flexrpc.NewDispatcher(c.Pres)
	disp.Handle("add", func(call *flexrpc.Call) error {
		call.SetResult(call.Arg(0).(int32) + call.Arg(1).(int32))
		return nil
	})
	disp.Handle("fill", func(call *flexrpc.Call) error {
		call.SetResult(make([]byte, call.Arg(0).(uint32)))
		return nil
	})
	conn, err := flexrpc.ConnectInProc(c.Pres, disp)
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := conn.Invoke("add", []flexrpc.Value{int32(40), int32(2)}, nil, nil)
	if err != nil || ret.(int32) != 42 {
		t.Fatalf("add = %v, %v", ret, err)
	}
	_, ret, err = conn.Invoke("fill", []flexrpc.Value{uint32(16)}, nil, nil)
	if err != nil || len(ret.([]byte)) != 16 {
		t.Fatalf("fill = %v, %v", ret, err)
	}
}

func TestPublicHandlerErrors(t *testing.T) {
	c := compileCalc(t)
	disp := flexrpc.NewDispatcher(c.Pres)
	disp.Handle("add", func(call *flexrpc.Call) error {
		return errors.New("arithmetic is closed today")
	})
	conn, err := flexrpc.ConnectInProc(c.Pres, disp)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = conn.Invoke("add", []flexrpc.Value{int32(1), int32(2)}, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "closed today") {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicFrontends(t *testing.T) {
	// All three front-ends are reachable through the facade.
	if _, err := flexrpc.Compile(flexrpc.Options{
		Frontend: flexrpc.FrontendSunXDR,
		Filename: "p.x",
		Source:   `program P { version V { int E(int) = 1; } = 1; } = 290001;`,
	}); err != nil {
		t.Errorf("sun: %v", err)
	}
	if _, err := flexrpc.Compile(flexrpc.Options{
		Frontend: flexrpc.FrontendMIG,
		Filename: "p.defs",
		Source:   `subsystem s 100; routine r(server : mach_port_t; in x : int);`,
	}); err != nil {
		t.Errorf("mig: %v", err)
	}
}

func TestPublicStylesAndTrust(t *testing.T) {
	c := compileCalc(t)
	p, err := c.WithPDL("t.pdl", `[leaky, unprotected] interface Calc { };`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pres.Trust != flexrpc.TrustFull {
		t.Fatalf("trust = %v", p.Pres.Trust)
	}
	if flexrpc.TrustNone >= flexrpc.TrustLeaky || flexrpc.TrustLeaky >= flexrpc.TrustFull {
		t.Fatal("trust ordering broken")
	}
}

func TestPublicCodecs(t *testing.T) {
	if flexrpc.XDRCodec.Name() != "xdr" || flexrpc.CDRCodec.Name() != "cdr" {
		t.Fatal("codec names wrong")
	}
}

func TestContractMismatchThroughFacade(t *testing.T) {
	c := compileCalc(t)
	other, err := flexrpc.Compile(flexrpc.Options{
		Frontend: flexrpc.FrontendCORBA,
		Filename: "o.idl",
		Source:   `interface Calc { long add(in long a); };`,
	})
	if err != nil {
		t.Fatal(err)
	}
	disp := flexrpc.NewDispatcher(other.Pres)
	if _, err := flexrpc.ConnectInProc(c.Pres, disp); err == nil {
		t.Fatal("mismatched contracts must not connect")
	}
}

func TestPublicVet(t *testing.T) {
	c := compileCalc(t)
	// Two well-formed endpoints of the same contract: clean.
	server, err := c.WithPDL("server.pdl", `interface Calc { fill([dealloc(never)] return); };`)
	if err != nil {
		t.Fatal(err)
	}
	if diags := flexrpc.Check(c.Pres, server.Pres); len(diags) != 0 {
		t.Fatalf("legal endpoint pair produced diagnostics: %v", diags)
	}
	// A hand-corrupted presentation draws a positioned, identified
	// finding through the facade.
	bad := c.Pres.Clone()
	bad.Op("fill").Param("n").Dealloc = flexrpc.DeallocNever
	diags := flexrpc.Check(bad)
	if len(diags) != 1 || diags[0].ID != "FV012" || diags[0].Severity != flexrpc.SevError {
		t.Fatalf("diags = %v, want one FV012 error", diags)
	}
	// Transport-aware endpoints: trust over the network is flagged.
	trusting := c.Pres.Clone()
	trusting.Trust = flexrpc.TrustFull
	diags = flexrpc.CheckEndpoints([]flexrpc.Endpoint{{Pres: trusting, Transport: "suntcp"}})
	if len(diags) != 1 || diags[0].ID != "FV005" {
		t.Fatalf("diags = %v, want one FV005", diags)
	}
	if flexrpc.CheckEndpoints(nil) != nil {
		t.Fatal("CheckEndpoints of nothing should be nil")
	}
}

func TestPublicCertify(t *testing.T) {
	c := compileCalc(t)
	cert, err := flexrpc.Certify(c.Pres, flexrpc.XDRCodec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.VerifyBounds(); err != nil {
		t.Fatalf("calc plan has an unbounded decode: %v", err)
	}
	// add is scalar-only: the server's marshal path allocates at most
	// the boxes of its two decoded arguments.
	if err := cert.VerifyAllocBound("server", "add", 2); err != nil {
		t.Fatal(err)
	}
	add := cert.OpCert("add")
	if add == nil {
		t.Fatal("no certificate for add")
	}
	for _, st := range add.Steps {
		if st.Phase == flexrpc.PhaseReqDecode && st.Landing != flexrpc.LandScalar {
			t.Fatalf("add %s lands %s, want scalar", st.Param, st.Landing)
		}
	}
}
