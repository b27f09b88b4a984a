package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSigBackend(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void op(in long x); };`)
	var out bytes.Buffer
	if err := run([]string{"-backend", "sig", idl}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "F{op(in:i32)->void}") {
		t.Fatalf("sig = %q", out.String())
	}
}

func TestPresBackendWithPDL(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { sequence<octet> get(in unsigned long n); };`)
	pdl := write(t, dir, "f.pdl", `[leaky] interface F { get([dealloc(never)] return); };`)
	var out bytes.Buffer
	if err := run([]string{"-backend", "pres", "-pdl", pdl, idl}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"trust leaky", "dealloc(never)"} {
		if !strings.Contains(s, want) {
			t.Errorf("pres output missing %q:\n%s", want, s)
		}
	}
}

func TestGoBackendToFile(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { long add(in long a, in long b); };`)
	outPath := filepath.Join(dir, "f.go")
	if err := run([]string{"-backend", "go", "-package", "f", "-o", outPath, idl}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "func (c *FClient) Add(a int32, b int32) (int32, error)") {
		t.Fatalf("generated:\n%s", src)
	}
}

func TestMIGFrontendFlag(t *testing.T) {
	dir := t.TempDir()
	defs := write(t, dir, "s.defs", `
		subsystem s 700;
		routine ping(server : mach_port_t; in x : int);`)
	var out bytes.Buffer
	if err := run([]string{"-frontend", "mig", "-backend", "sig", defs}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ping(in:i32)") {
		t.Fatalf("sig = %q", out.String())
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void op(); };`)
	cases := [][]string{
		{idl, "extra"},                      // arg count
		{"-frontend", "cobol", idl},         // unknown frontend
		{"-style", "baroque", idl},          // unknown style
		{"-backend", "fortran", idl},        // unknown backend
		{filepath.Join(dir, "missing.idl")}, // unreadable input
		{"-pdl", filepath.Join(dir, "missing.pdl"), idl},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// ---- flexc stats -----------------------------------------------------

func TestStatsTextDump(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `
		interface F {
			void nop();
			sequence<octet> echo(in sequence<octet> data);
		};`)
	var out bytes.Buffer
	if err := run([]string{"stats", "-calls", "25", "-payload", "128", "-trace", "8", idl}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"op.nop.calls 25",
		"op.echo.calls 25",
		"op.echo.bytes_out",
		"codec.encode.count 50",
		"trace.events ",
		"stage=send",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("stats dump missing %q:\n%s", want, s)
		}
	}
}

func TestStatsJSONDump(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { long add(in long a, in long b); };`)
	var out bytes.Buffer
	if err := run([]string{"stats", "-json", "-calls", "10", idl}, &out); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Ops []struct {
			Name  string `json:"name"`
			Calls uint64 `json:"calls"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(snap.Ops) != 1 || snap.Ops[0].Name != "add" || snap.Ops[0].Calls != 10 {
		t.Fatalf("json snapshot = %+v", snap)
	}
}

// ---- flexc vet -------------------------------------------------------

func TestVetCleanInterface(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { sequence<octet> get(in unsigned long n); };`)
	var out bytes.Buffer
	if err := run([]string{"vet", idl}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "" {
		t.Fatalf("clean interface produced output:\n%s", out.String())
	}
}

// The repo's own examples must stay lint-clean, alone and as a
// client/server pair.
func TestVetExamplesStayClean(t *testing.T) {
	idl := filepath.Join("..", "..", "examples", "pipes", "fileio", "fileio.idl")
	client := filepath.Join("..", "..", "examples", "pipes", "fileio", "client.pdl")
	server := filepath.Join("..", "..", "examples", "pipes", "fileio", "server.pdl")
	for _, args := range [][]string{
		{"vet", idl},
		{"vet", "-pdl", client, "-peer-pdl", server, idl},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Errorf("args %v: %v\n%s", args, err, out.String())
		}
		if out.String() != "" {
			t.Errorf("args %v: examples not lint-clean:\n%s", args, out.String())
		}
	}
}

func TestVetReportsAnnotationErrors(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { sequence<octet> get(in unsigned long n); };`)
	pdl := write(t, dir, "f.pdl", `interface F { get([nonunique] n); frob([special] x); };`)
	var out bytes.Buffer
	err := run([]string{"vet", "-pdl", pdl, idl}, &out)
	if err == nil {
		t.Fatal("vet with error-severity findings must exit non-zero")
	}
	s := out.String()
	for _, want := range []string{"f.pdl:1:", "[FV011]", "[FV007]", "F.get.n"} {
		if !strings.Contains(s, want) {
			t.Errorf("vet output missing %q:\n%s", want, s)
		}
	}
}

func TestVetWarningsDoNotFail(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void put(in sequence<octet> data); };`)
	pdl := write(t, dir, "f.pdl", `interface F { put([trashable, special] data); };`)
	var out bytes.Buffer
	if err := run([]string{"vet", "-pdl", pdl, idl}, &out); err != nil {
		t.Fatalf("warning-only vet failed: %v", err)
	}
	if !strings.Contains(out.String(), "[FV004]") {
		t.Fatalf("expected FV004 warning:\n%s", out.String())
	}
}

func TestVetCrossEndpoint(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void put(in sequence<octet> data); };`)
	cl := write(t, dir, "client.pdl", `interface F { put([dealloc(always)] data); };`)
	sv := write(t, dir, "server.pdl", `interface F { put([preserved] data); };`)
	var out bytes.Buffer
	err := run([]string{"vet", "-pdl", cl, "-peer-pdl", sv, idl}, &out)
	if err == nil || !strings.Contains(out.String(), "[FV002]") {
		t.Fatalf("use-after-transfer pair not detected (err=%v):\n%s", err, out.String())
	}
}

func TestVetContractDrift(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void put(in sequence<octet> data); };`)
	peer := write(t, dir, "peer.idl", `interface F { void put(in sequence<octet> data, in unsigned long off); };`)
	var out bytes.Buffer
	err := run([]string{"vet", "-peer-idl", peer, idl}, &out)
	if err == nil || !strings.Contains(out.String(), "[FV001]") {
		t.Fatalf("contract drift not detected (err=%v):\n%s", err, out.String())
	}
}

func TestVetTrustOverNetwork(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void ping(); };`)
	pdl := write(t, dir, "f.pdl", `[leaky, unprotected] interface F { };`)
	var out bytes.Buffer
	// Same-domain: clean.
	if err := run([]string{"vet", "-pdl", pdl, "-transport", "inproc", idl}, &out); err != nil || out.Len() != 0 {
		t.Fatalf("inproc trust flagged (err=%v):\n%s", err, out.String())
	}
	// Network transport: error.
	out.Reset()
	err := run([]string{"vet", "-pdl", pdl, "-transport", "suntcp", idl}, &out)
	if err == nil || !strings.Contains(out.String(), "[FV005]") {
		t.Fatalf("network trust not flagged (err=%v):\n%s", err, out.String())
	}
}

// -json emits NDJSON: one diagnostic object per line, so pipelines
// can stream-parse without buffering an array.
func TestVetJSONOutput(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { sequence<octet> get(in unsigned long n); };`)
	pdl := write(t, dir, "f.pdl", `interface F { get([nonunique] n); frob([special] x); };`)
	var out bytes.Buffer
	err := run([]string{"vet", "-json", "-pdl", pdl, idl}, &out)
	if err == nil {
		t.Fatal("expected non-zero exit")
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one NDJSON line per diagnostic, got %d:\n%s", len(lines), out.String())
	}
	var diag map[string]any
	if jerr := json.Unmarshal([]byte(lines[0]), &diag); jerr != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", jerr, lines[0])
	}
	if diag["id"] != "FV011" || diag["severity"] != "error" {
		t.Fatalf("json = %v", diag)
	}
}

// The vet exit contract: clean 0, findings 1, analysis failures 2.
func TestVetExitCodes(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { sequence<octet> get(in unsigned long n); };`)
	pdl := write(t, dir, "f.pdl", `interface F { get([nonunique] n); };`)

	if err := run([]string{"vet", idl}, &bytes.Buffer{}); err != nil {
		t.Fatalf("clean vet: %v", err)
	}
	err := run([]string{"vet", "-pdl", pdl, idl}, &bytes.Buffer{})
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("findings must exit 1, got %v (code %d)", err, exitCode(err))
	}
	err = run([]string{"vet", filepath.Join(dir, "missing.idl")}, &bytes.Buffer{})
	if err == nil || exitCode(err) != 2 {
		t.Fatalf("load failure must exit 2, got %v (code %d)", err, exitCode(err))
	}
	err = run([]string{"vet", "-go", "-dir", dir, "./..."}, &bytes.Buffer{})
	if err == nil || exitCode(err) != 2 {
		t.Fatalf("-go outside a module must exit 2, got %v (code %d)", err, exitCode(err))
	}
}

// -Werror promotes warning findings to a non-zero exit.
func TestVetWerror(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "f.idl", `interface F { void put(in sequence<octet> data); };`)
	pdl := write(t, dir, "f.pdl", `interface F { put([trashable, special] data); };`)
	if err := run([]string{"vet", "-pdl", pdl, idl}, &bytes.Buffer{}); err != nil {
		t.Fatalf("warnings without -Werror must exit 0: %v", err)
	}
	err := run([]string{"vet", "-Werror", "-pdl", pdl, idl}, &bytes.Buffer{})
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("warnings with -Werror must exit 1, got %v (code %d)", err, exitCode(err))
	}
}

// The Go-side suite through the CLI: seeded violations in the
// analyzer's own fixture tree fire with positions; the repo's real
// packages stay clean.
func TestVetGoFixtures(t *testing.T) {
	root := filepath.Join("..", "..")
	var out bytes.Buffer
	err := run([]string{"vet", "-go", "-json", "-dir", root,
		"./internal/analyze/gocheck/testdata/src/fv017",
		"./internal/analyze/gocheck/testdata/src/clean"}, &out)
	if err == nil || exitCode(err) != 1 {
		t.Fatalf("seeded violations must exit 1, got %v", err)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		var diag struct {
			ID   string `json:"id"`
			File string `json:"file"`
			Line int    `json:"line"`
		}
		if jerr := json.Unmarshal([]byte(line), &diag); jerr != nil {
			t.Fatalf("not NDJSON: %v\n%s", jerr, line)
		}
		if diag.ID != "FV017" || diag.Line == 0 {
			t.Fatalf("unexpected diagnostic %+v", diag)
		}
		if !strings.Contains(diag.File, "testdata/src/fv017") {
			t.Fatalf("finding outside the seeded package: %+v", diag)
		}
	}
}

// -certify emits the static plan certificate for an example contract:
// the null RPC and the borrow-mode put certify 0-alloc on both sides
// (the borrowed buffer lands unboxed), and every variable-length decode
// step carries the plan's bound.
func TestVetCertify(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "hot.idl", `
		interface Hot {
			void nop();
			void put(in sequence<octet> data);
		};`)
	var out bytes.Buffer
	if err := run([]string{"vet", "-certify", idl}, &out); err != nil {
		t.Fatal(err)
	}
	var cert struct {
		Interface string `json:"interface"`
		Codec     string `json:"codec"`
		MaxDecode uint32 `json:"max_decode"`
		Ops       []struct {
			Op               string `json:"op"`
			ClientAllocBound int    `json:"client_alloc_bound"`
			ServerAllocBound int    `json:"server_alloc_bound"`
			ClientAllocFree  bool   `json:"client_alloc_free"`
			ServerAllocFree  bool   `json:"server_alloc_free"`
		} `json:"ops"`
	}
	if err := json.Unmarshal(out.Bytes(), &cert); err != nil {
		t.Fatalf("certificate is not JSON: %v\n%s", err, out.String())
	}
	if cert.Interface != "Hot" || cert.Codec != "xdr" || cert.MaxDecode == 0 {
		t.Fatalf("certificate header = %+v", cert)
	}
	byOp := map[string]int{}
	for i, oc := range cert.Ops {
		byOp[oc.Op] = i
	}
	nop := cert.Ops[byOp["nop"]]
	if !nop.ClientAllocFree || !nop.ServerAllocFree {
		t.Fatalf("null RPC not certified alloc-free: %+v", nop)
	}
	put := cert.Ops[byOp["put"]]
	if !put.ClientAllocFree || !put.ServerAllocFree {
		t.Fatalf("borrow put certificate = %+v", put)
	}
}

func TestVetListRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"vet", "-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"FV001", "FV005", "FV012"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("registry listing missing %s", id)
		}
	}
	// Consumers keyed on IDs are told which ones stopped firing.
	for _, id := range []string{"FV013", "FV015", "FV019", "FV022"} {
		if !strings.Contains(out.String(), id+" (retired)") {
			t.Errorf("registry listing does not mark %s retired", id)
		}
	}
}

// The analyzer is dialect-agnostic: the same checks fire no matter
// which front-end produced the contract.
func TestVetAcrossFrontends(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		frontend, file, src string
		op, bufParam        string
	}{
		{
			frontend: "corba",
			file:     "f.idl",
			src:      `interface F { void put(in sequence<octet> data); };`,
			op:       "put", bufParam: "data",
		},
		{
			frontend: "sun",
			file:     "f.x",
			src: `
				typedef opaque buf<8192>;
				program F { version V { void PUT(buf) = 1; } = 1; } = 300099;`,
			op: "PUT", bufParam: "arg1",
		},
		{
			frontend: "mig",
			file:     "f.defs",
			src: `
				subsystem f 900;
				type buf_t = array[*:8192] of char;
				routine put(server : mach_port_t; in data : buf_t);`,
			op: "put", bufParam: "data",
		},
	}
	for _, tc := range cases {
		t.Run(tc.frontend, func(t *testing.T) {
			idl := write(t, dir, tc.file, tc.src)
			// Clean: the default presentation lints clean in every dialect.
			var out bytes.Buffer
			if err := run([]string{"vet", "-frontend", tc.frontend, idl}, &out); err != nil || out.Len() != 0 {
				t.Fatalf("default presentation not clean (err=%v):\n%s", err, out.String())
			}
			// Dirty: the same annotation mistake draws the same check ID.
			pdl := write(t, dir, tc.frontend+".pdl",
				`interface `+ifaceNameFor(tc.frontend)+` { `+tc.op+`([nonunique] `+tc.bufParam+`); };`)
			out.Reset()
			err := run([]string{"vet", "-frontend", tc.frontend, "-pdl", pdl, idl}, &out)
			if err == nil || !strings.Contains(out.String(), "[FV011]") {
				t.Fatalf("FV011 not detected (err=%v):\n%s", err, out.String())
			}
		})
	}
}

// ifaceNameFor returns the interface name each front-end derives from
// the sources in TestVetAcrossFrontends.
func ifaceNameFor(frontend string) string {
	switch frontend {
	case "sun":
		return "F_V"
	case "mig":
		return "f"
	}
	return "F"
}

// ---- flexc load ------------------------------------------------------

// TestMain lets the test binary stand in for the flexc executable when
// `flexc load -procs N` re-executes itself as a load worker: the
// parent sets FLEXC_LOAD_WORKER on every child, and the dispatch here
// runs before the testing framework would choke on the worker's argv.
func TestMain(m *testing.M) {
	if os.Getenv(loadWorkerEnv) != "" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "flexc:", err)
			os.Exit(exitCode(err))
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const loadIDL = `interface L { void nop(); long ping(in long x); };`

// TestLoadMultiProcess: -procs forks real worker processes that drive
// the parent's unix-socket server and stream WireReports back; the
// combined report must cover every connection from every worker, pass
// the -check gate, and carry percentiles recomputed from the merged
// histograms.
func TestLoadMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	dir := t.TempDir()
	idl := write(t, dir, "l.idl", loadIDL)
	var out bytes.Buffer
	err := run([]string{"load",
		"-procs", "2", "-conns", "9", "-workers", "4",
		"-think", "1ms", "-warmup", "30ms", "-measure", "150ms", "-cooldown", "20ms",
		"-json", "-check", idl}, &out)
	if err != nil {
		t.Fatalf("load -procs 2: %v\n%s", err, out.String())
	}
	var rep struct {
		Clients   int     `json:"clients"`
		Completed uint64  `json:"completed"`
		Errors    uint64  `json:"errors"`
		Goodput   float64 `json:"goodput_per_sec"`
		P50       int64   `json:"p50_ns"`
		P99       int64   `json:"p99_ns"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	if rep.Clients != 9 {
		t.Fatalf("combined clients = %d, want 9 (worker shares lost)", rep.Clients)
	}
	if rep.Completed == 0 || rep.Goodput <= 0 {
		t.Fatalf("no traffic completed: %s", out.String())
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors across workers:\n%s", rep.Errors, out.String())
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("merged percentiles broken: p50=%d p99=%d", rep.P50, rep.P99)
	}
}

// TestLoadNetpoll: -netpoll serves the event-driven runtime over a
// real unix socket; the run must complete cleanly (on platforms
// without a poller this exercises the transparent fallback).
func TestLoadNetpoll(t *testing.T) {
	dir := t.TempDir()
	idl := write(t, dir, "l.idl", loadIDL)
	var out bytes.Buffer
	err := run([]string{"load",
		"-netpoll", "-conns", "16", "-workers", "4",
		"-think", "1ms", "-warmup", "30ms", "-measure", "150ms", "-cooldown", "20ms",
		"-json", "-check", idl}, &out)
	if err != nil {
		t.Fatalf("load -netpoll: %v\n%s", err, out.String())
	}
}
