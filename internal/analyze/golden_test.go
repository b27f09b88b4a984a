package analyze_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flexrpc/internal/analyze"
	"flexrpc/internal/idl/corba"
	"flexrpc/internal/pdl"
	"flexrpc/internal/pres"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCases pin the exact rendered diagnostic (ID, position,
// message) for each check. PDL sources live here so the recorded
// positions are real; the expected output lives under testdata/.
var goldenCases = []struct {
	name      string
	client    string
	server    string // "" for single-endpoint cases
	transport string
}{
	{
		name:   "fv002_use_after_transfer",
		client: "interface FileIO {\n    write([dealloc(always)] data);\n};\n",
		server: "interface FileIO {\n    write([preserved] data);\n};\n",
	},
	{
		name:   "fv003_unique_name_mismatch",
		client: "interface FileIO {\n    send_port([nonunique] right);\n};\n",
		server: "interface FileIO { };\n",
	},
	{
		name:   "fv004_trashable_special_alias",
		client: "interface FileIO {\n    write([trashable, special] data);\n};\n",
	},
	{
		name:      "fv005_trust_over_network",
		client:    "[leaky, unprotected]\ninterface FileIO { };\n",
		transport: "suntcp",
	},
	{
		name:   "fv006_callee_alloc_leak",
		client: "interface FileIO {\n    read([alloc(callee), dealloc(never)] return);\n};\n",
	},
	{
		name:   "fv007_dead_annotation",
		client: "interface FileIO {\n    frob([special] x);\n    write([trashable] nosuch);\n};\n",
	},
	{
		name:   "fv008_mutability_conflict",
		client: "interface FileIO {\n    write([trashable, preserved] data);\n};\n",
	},
	{
		name:   "fv009_length_is_invalid",
		client: "interface FileIO {\n    write_msg([length_is(nlen)] msg);\n};\n",
	},
	{
		name:   "fv010_mutability_on_out",
		client: "interface FileIO {\n    read([preserved] return);\n};\n",
	},
	{
		name:   "fv011_nonunique_on_non_port",
		client: "interface FileIO {\n    write([nonunique] data);\n};\n",
	},
	{
		name:   "fv012_alloc_on_scalar",
		client: "interface FileIO {\n    read([dealloc(never)] count);\n};\n",
	},
	{
		name:   "fv014_idempotent_moves_ownership",
		client: "interface FileIO {\n    [idempotent] write([dealloc(always)] data);\n    [idempotent] read([alloc(callee)] return);\n};\n",
	},
	{
		name:   "fv016_batchable_copies_frames",
		client: "interface FileIO {\n    [batchable] write([dealloc(always)] data);\n    [batchable] read([alloc(callee)] return);\n    [batchable] write_msg([special] msg);\n};\n",
	},
	{
		name:   "fv021_trust_elides_ownership",
		client: "[trusted]\ninterface FileIO {\n    write([dealloc(always)] data);\n    read([alloc(callee)] return);\n};\n",
		server: "interface FileIO { };\n",
	},
	{
		name:   "clean_figure5",
		client: "interface FileIO {\n    read([dealloc(never)] return);\n};\n",
		server: "interface FileIO {\n    write([preserved] data);\n};\n",
	},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			iface := compileIface(t)
			client := pres.Default(iface, pres.StyleCORBA)
			if err := pdl.ApplyLoose(client, "client.pdl", tc.client); err != nil {
				t.Fatal(err)
			}
			ep := analyze.Endpoint{Pres: client, Transport: tc.transport, Label: "client"}
			eps := []analyze.Endpoint{ep}
			if tc.server != "" {
				server := pres.Default(iface, pres.StyleCORBA)
				if err := pdl.ApplyLoose(server, "server.pdl", tc.server); err != nil {
					t.Fatal(err)
				}
				eps = append(eps, analyze.Endpoint{Pres: server, Label: "server"})
			}
			got := analyze.Render(analyze.CheckEndpoints(eps))
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenContractDrift renders the cross-endpoint drift case; it
// is built from two IDL texts rather than PDL.
func TestGoldenContractDrift(t *testing.T) {
	iface := compileIface(t)
	driftFile, err := corba.Parse("drift.idl", `
		interface FileIO {
		    sequence<octet> read(in unsigned long count, in unsigned long offset);
		    void write(in sequence<octet> data);
		    void write_msg(in string msg, in long length);
		    void send_port(in Object right);
		    void truncate();
		};`)
	if err != nil {
		t.Fatal(err)
	}
	got := analyze.Render(analyze.CheckEndpoints([]analyze.Endpoint{
		{Pres: pres.Default(iface, pres.StyleCORBA), Label: "client"},
		{Pres: pres.Default(driftFile.Interface("FileIO"), pres.StyleCORBA), Label: "server"},
	}))
	path := filepath.Join("testdata", "fv001_contract_drift.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
