package analyze_test

import (
	"strings"
	"testing"

	"flexrpc/internal/analyze"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/ir"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

// vetIDL is the paper's FileIO interface extended with a port-typed
// operation and a length-carrying operation so every check has a
// target.
const vetIDL = `
interface FileIO {
    sequence<octet> read(in unsigned long count);
    void write(in sequence<octet> data);
    void write_msg(in string msg, in long length);
    void send_port(in Object right);
};`

func compileIface(t *testing.T) *ir.Interface {
	t.Helper()
	return parseIface(t, vetIDL)
}

func parseIface(t *testing.T, src string) *ir.Interface {
	t.Helper()
	f, err := corba.Parse("fileio.idl", src)
	if err != nil {
		t.Fatal(err)
	}
	return f.Interface("FileIO")
}

func endpoint(t *testing.T, iface *ir.Interface, pdlSrc string) *pres.Presentation {
	t.Helper()
	base := pres.Default(iface, pres.StyleCORBA)
	if pdlSrc == "" {
		return base
	}
	if err := pdl.ApplyLoose(base, "ep.pdl", pdlSrc); err != nil {
		t.Fatal(err)
	}
	return base
}

func ids(diags []analyze.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.ID)
	}
	return out
}

func hasID(diags []analyze.Diagnostic, id string) bool {
	for _, d := range diags {
		if d.ID == id {
			return true
		}
	}
	return false
}

// TestChecksCleanAndDirty exercises every FV check with a case that
// must fire and a near-miss that must stay clean.
func TestChecksCleanAndDirty(t *testing.T) {
	cases := []struct {
		name      string
		client    string // PDL for endpoint 1
		server    string // PDL for endpoint 2; "" means single-endpoint run
		serverIDL string // endpoint 2's own declaration; "" means vetIDL
		two       bool   // run with two endpoints even if server PDL is empty
		transport string
		want      []string // IDs that must fire, in any order
		clean     []string // IDs that must NOT fire
	}{
		{
			name:   "FV002 dirty: sender frees what receiver preserves",
			client: `interface FileIO { write([dealloc(always)] data); };`,
			server: `interface FileIO { write([preserved] data); };`,
			two:    true,
			want:   []string{"FV002"},
		},
		{
			name:   "FV002 dirty: receiver names the parameter differently",
			client: `interface FileIO { write([dealloc(always)] data); };`,
			server: `interface FileIO { write([preserved] buf); };`,
			serverIDL: `
				interface FileIO {
				    void send_port(in Object right);
				    void write_msg(in string msg, in long length);
				    void write(in sequence<octet> buf);
				    sequence<octet> read(in unsigned long count);
				};`,
			want: []string{"FV002"},
		},
		{
			name:   "FV002 clean: figure 8/9 trashable-preserved pairing",
			client: `interface FileIO { write([trashable] data); };`,
			server: `interface FileIO { write([preserved] data); };`,
			two:    true,
			clean:  []string{"FV002"},
		},
		{
			name:   "FV003 dirty: nonunique on one side only",
			client: `interface FileIO { send_port([nonunique] right); };`,
			server: ``,
			two:    true,
			want:   []string{"FV003"},
		},
		{
			name:   "FV003 clean: nonunique on both sides",
			client: `interface FileIO { send_port([nonunique] right); };`,
			server: `interface FileIO { send_port([nonunique] right); };`,
			two:    true,
			clean:  []string{"FV003"},
		},
		{
			name:   "FV004 dirty: trashable with special hook",
			client: `interface FileIO { write([trashable, special] data); };`,
			want:   []string{"FV004"},
		},
		{
			name:   "FV004 clean: special alone",
			client: `interface FileIO { write([special] data); };`,
			clean:  []string{"FV004"},
		},
		{
			name:      "FV005 dirty: leaky over the network",
			client:    `[leaky] interface FileIO { };`,
			transport: "suntcp",
			want:      []string{"FV005"},
		},
		{
			name:      "FV005 clean: leaky same-domain",
			client:    `[leaky] interface FileIO { };`,
			transport: "inproc",
			clean:     []string{"FV005"},
		},
		{
			name:      "FV005 clean: untrusting over the network",
			client:    ``,
			transport: "suntcp",
			clean:     []string{"FV005"},
		},
		{
			name:   "FV006 dirty: explicit callee alloc never freed",
			client: `interface FileIO { read([alloc(callee), dealloc(never)] return); };`,
			want:   []string{"FV006"},
		},
		{
			name:   "FV006 clean: figure 5 dealloc(never) on default alloc",
			client: `interface FileIO { read([dealloc(never)] return); };`,
			clean:  []string{"FV006"},
		},
		{
			name:   "FV007 dirty: unknown operation and parameter",
			client: `interface FileIO { frob([special] x); write([trashable] nosuch); };`,
			want:   []string{"FV007", "FV007"},
		},
		{
			name:   "FV008 dirty: trashable and preserved together",
			client: `interface FileIO { write([trashable, preserved] data); };`,
			want:   []string{"FV008"},
		},
		{
			name:   "FV009 dirty: length_is target missing",
			client: `interface FileIO { write_msg([length_is(nlen)] msg); };`,
			want:   []string{"FV009"},
		},
		{
			name:   "FV009 dirty: length_is target not integer",
			client: `interface FileIO { write_msg([length_is(msg)] msg); };`,
			want:   []string{"FV009"},
		},
		{
			name:   "FV009 clean: length_is integer target",
			client: `interface FileIO { write_msg([length_is(length)] msg); };`,
			clean:  []string{"FV009"},
		},
		{
			name:   "FV010 dirty: trashable on a result",
			client: `interface FileIO { read([trashable] return); };`,
			want:   []string{"FV010"},
		},
		{
			name:   "FV011 dirty: nonunique on bytes",
			client: `interface FileIO { write([nonunique] data); };`,
			want:   []string{"FV011"},
		},
		{
			name:   "FV011 clean: nonunique on a port",
			client: `interface FileIO { send_port([nonunique] right); };`,
			clean:  []string{"FV011"},
		},
		{
			name:   "FV012 dirty: dealloc on a scalar",
			client: `interface FileIO { read([dealloc(never)] count); };`,
			want:   []string{"FV012"},
		},
		{
			name:   "FV012 clean: dealloc on a buffer",
			client: `interface FileIO { read([dealloc(never)] return); };`,
			clean:  []string{"FV012"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			iface := compileIface(t)
			eps := []analyze.Endpoint{{Pres: endpoint(t, iface, tc.client), Transport: tc.transport, Label: "client"}}
			if tc.server != "" || tc.two {
				siface := iface
				if tc.serverIDL != "" {
					siface = parseIface(t, tc.serverIDL)
				}
				eps = append(eps, analyze.Endpoint{Pres: endpoint(t, siface, tc.server), Label: "server"})
			}
			diags := analyze.CheckEndpoints(eps)
			for _, id := range tc.want {
				if !hasID(diags, id) {
					t.Errorf("want %s, got %v:\n%s", id, ids(diags), analyze.Render(diags))
				}
			}
			for _, id := range tc.clean {
				if hasID(diags, id) {
					t.Errorf("must not fire %s, got:\n%s", id, analyze.Render(diags))
				}
			}
		})
	}
}

// TestCrossAcceptsLegalPDLPairs: any two presentations derived from
// the same IR via legal PDL share the contract, so the cross-endpoint
// compatibility check (FV001) never fires.
func TestCrossAcceptsLegalPDLPairs(t *testing.T) {
	iface := compileIface(t)
	pdls := []string{
		``,
		`interface FileIO { read([dealloc(never)] return); };`,
		`interface FileIO { write([trashable] data); };`,
		`interface FileIO { write([preserved] data); };`,
		`[leaky] interface FileIO { [comm_status] read(); };`,
		`interface FileIO { write_msg([length_is(length)] msg); };`,
	}
	for _, a := range pdls {
		for _, b := range pdls {
			diags := analyze.Check(endpoint(t, iface, a), endpoint(t, iface, b))
			if hasID(diags, "FV001") {
				t.Fatalf("FV001 fired for legal PDL pair %q / %q:\n%s", a, b, analyze.Render(diags))
			}
		}
	}
}

// TestCrossRejectsContractDrift: a hand-built drift case — same
// interface name, different operation shape — must fail FV001.
func TestCrossRejectsContractDrift(t *testing.T) {
	iface := compileIface(t)
	driftFile, err := corba.Parse("drift.idl", `
		interface FileIO {
		    sequence<octet> read(in unsigned long count, in unsigned long offset);
		    void write(in sequence<octet> data);
		    void truncate();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	drift := driftFile.Interface("FileIO")
	diags := analyze.Check(pres.Default(iface, pres.StyleCORBA), pres.Default(drift, pres.StyleCORBA))
	if !hasID(diags, "FV001") {
		t.Fatalf("contract drift not detected:\n%s", analyze.Render(diags))
	}
	var msgs []string
	for _, d := range diags {
		if d.ID == "FV001" {
			msgs = append(msgs, d.Message)
		}
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{`"read"`, `"truncate"`} {
		if !strings.Contains(joined, want) {
			t.Errorf("FV001 messages missing %s:\n%s", want, joined)
		}
	}
	// Drifted contracts must not cascade into annotation-pair noise.
	if hasID(diags, "FV002") || hasID(diags, "FV003") {
		t.Errorf("annotation-pair checks ran over drifted contracts:\n%s", analyze.Render(diags))
	}
}

// TestUnprotectedEscalatesToError: FV005 is a warning for [leaky] but
// an error for full [unprotected] trust.
func TestUnprotectedEscalatesToError(t *testing.T) {
	iface := compileIface(t)
	leaky := analyze.CheckEndpoints([]analyze.Endpoint{
		{Pres: endpoint(t, iface, `[leaky] interface FileIO { };`), Transport: "suntcp"},
	})
	full := analyze.CheckEndpoints([]analyze.Endpoint{
		{Pres: endpoint(t, iface, `[leaky, unprotected] interface FileIO { };`), Transport: "suntcp"},
	})
	hasErrors := func(diags []analyze.Diagnostic) bool {
		for _, d := range diags {
			if d.Severity == analyze.SevError {
				return true
			}
		}
		return false
	}
	if hasErrors(leaky) {
		t.Errorf("[leaky] should be a warning:\n%s", analyze.Render(leaky))
	}
	if !hasErrors(full) {
		t.Errorf("[unprotected] should be an error:\n%s", analyze.Render(full))
	}
}

// TestDiagnosticsArePositioned: findings caused by PDL annotations
// carry the PDL source position.
func TestDiagnosticsArePositioned(t *testing.T) {
	iface := compileIface(t)
	p := endpoint(t, iface, "interface FileIO {\n    write([nonunique] data);\n};")
	diags := analyze.Check(p)
	if len(diags) != 1 || diags[0].ID != "FV011" {
		t.Fatalf("diags = %v", diags)
	}
	d := diags[0]
	if d.Pos.File != "ep.pdl" || d.Pos.Line != 2 {
		t.Errorf("pos = %v, want ep.pdl:2", d.Pos)
	}
	if d.Fix == "" {
		t.Error("diagnostic carries no fix suggestion")
	}
	if !strings.Contains(d.String(), "ep.pdl:2:") || !strings.Contains(d.String(), "[FV011]") {
		t.Errorf("rendering = %q, want go vet style", d.String())
	}
}

// TestRegistryCoversAllReportedIDs: every ID the analyzer can emit is
// documented, with fix text, and Checks() is sorted.
func TestRegistryCoversAllReportedIDs(t *testing.T) {
	checks := analyze.Checks()
	if len(checks) < 8 {
		t.Fatalf("registry has %d checks, want at least 8", len(checks))
	}
	for i, c := range checks {
		if c.ID == "" || c.Doc == "" || c.Fix == "" || c.Title == "" {
			t.Errorf("check %+v incompletely documented", c)
		}
		if i > 0 && checks[i-1].ID >= c.ID {
			t.Errorf("registry not sorted: %s before %s", checks[i-1].ID, c.ID)
		}
	}
}

// TestJSONRendering: -json output is machine readable, one object per
// line, and empty when there is nothing to report.
func TestJSONRendering(t *testing.T) {
	out, err := analyze.RenderLines(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty = %s, %v", out, err)
	}
	iface := compileIface(t)
	diags := analyze.Check(endpoint(t, iface, `interface FileIO { write([nonunique] data); };`))
	out, err = analyze.RenderLines(diags)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "\n"); n != len(diags) {
		t.Errorf("%d lines for %d findings:\n%s", n, len(diags), out)
	}
	for _, want := range []string{`"id":"FV011"`, `"severity":"error"`, `"file":"ep.pdl"`, `"fix"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("json missing %s:\n%s", want, out)
		}
	}
}

// TestNetworkTransportClassification pins the transport split FV005
// relies on.
func TestNetworkTransportClassification(t *testing.T) {
	for _, name := range []string{"suntcp", "sunudp", "tcp"} {
		if !analyze.IsNetworkTransport(name) {
			t.Errorf("%s should be a network transport", name)
		}
	}
	for _, name := range []string{"inproc", "machipc", "fbufrpc", ""} {
		if analyze.IsNetworkTransport(name) {
			t.Errorf("%s should not be a network transport", name)
		}
	}
}
