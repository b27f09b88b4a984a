package sunxdr

import (
	"strings"
	"testing"

	"flexrpc/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.File {
	t.Helper()
	f, err := Parse("test.x", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

// A trimmed version of the NFS v2 protocol, the shape used by the
// paper's §4.1 experiment.
const nfsSrc = `
const NFS_FHSIZE = 32;
const MAXDATA = 8192;

typedef opaque nfs_fh[NFS_FHSIZE];
typedef opaque nfsdata<MAXDATA>;
typedef string filename<255>;

enum nfsstat {
	NFS_OK = 0,
	NFSERR_PERM = 1,
	NFSERR_NOENT = 2,
	NFSERR_IO = 5
};

struct fattr {
	unsigned fileid;
	unsigned size;
	unsigned mtime;
};

struct readargs {
	nfs_fh file;
	unsigned offset;
	unsigned count;
	unsigned totalcount;
};

struct readres {
	nfsstat status;
	fattr attributes;
	nfsdata data;
};

program NFS_PROGRAM {
	version NFS_VERSION {
		void NFSPROC_NULL(void) = 0;
		fattr NFSPROC_GETATTR(nfs_fh) = 1;
		readres NFSPROC_READ(readargs) = 6;
	} = 2;
} = 100003;
`

func TestParseNFS(t *testing.T) {
	f := mustParse(t, nfsSrc)
	iface := f.Interface("NFS_PROGRAM_NFS_VERSION")
	if iface == nil {
		t.Fatal("interface not found")
	}
	if iface.Program != 100003 || iface.Version != 2 {
		t.Fatalf("prog/vers = %d/%d", iface.Program, iface.Version)
	}
	read := iface.Op("NFSPROC_READ")
	if read == nil || read.Proc != 6 {
		t.Fatalf("read = %+v", read)
	}
	arg := read.Params[0].Type
	if arg.Kind != ir.Struct || len(arg.Fields) != 4 {
		t.Fatalf("readargs = %+v", arg)
	}
	if arg.Fields[0].Type.Kind != ir.FixedBytes || arg.Fields[0].Type.Size != 32 {
		t.Fatalf("nfs_fh = %+v", arg.Fields[0].Type)
	}
	res := read.Result
	if res.Kind != ir.Struct || res.Fields[2].Type.Kind != ir.Bytes {
		t.Fatalf("readres = %+v", res)
	}
	if res.Fields[0].Type.Kind != ir.Enum {
		t.Fatalf("status field = %+v", res.Fields[0].Type)
	}
	null := iface.Op("NFSPROC_NULL")
	if null.Proc != 0 || len(null.Params) != 0 || null.HasResult() {
		t.Fatalf("null proc = %+v", null)
	}
}

func TestEnumValues(t *testing.T) {
	f := mustParse(t, nfsSrc)
	if f.Consts["NFS_OK"] != 0 || f.Consts["NFSERR_IO"] != 5 {
		t.Fatalf("enum consts = %v", f.Consts)
	}
	// Implicit continuation after explicit value.
	f2 := mustParse(t, `enum e { a = 5, b, c = 10, d };`)
	if f2.Consts["b"] != 6 || f2.Consts["d"] != 11 {
		t.Fatalf("consts = %v", f2.Consts)
	}
}

func TestTypeSpecs(t *testing.T) {
	f := mustParse(t, `
		struct all {
			int a;
			unsigned b;
			unsigned int c;
			hyper d;
			unsigned hyper e;
			bool f;
			float g;
			double h;
			string s<>;
			opaque fixed[8];
			opaque vari<>;
			int nums<16>;
			int grid[4];
		};`)
	st := f.Typedefs["all"]
	kinds := []ir.Kind{
		ir.Int32, ir.Uint32, ir.Uint32, ir.Int64, ir.Uint64,
		ir.Bool, ir.Float32, ir.Float64, ir.String,
		ir.FixedBytes, ir.Bytes, ir.Seq, ir.Array,
	}
	for i, k := range kinds {
		if st.Fields[i].Type.Kind != k {
			t.Errorf("field %s kind = %v, want %v", st.Fields[i].Name, st.Fields[i].Type.Kind, k)
		}
	}
}

func TestMultiArgProc(t *testing.T) {
	f := mustParse(t, `
		program P { version V {
			int ADD(int, int) = 1;
		} = 1; } = 200000;`)
	op := f.Interface("P_V").Op("ADD")
	if len(op.Params) != 2 || op.Params[0].Name != "arg1" || op.Params[1].Name != "arg2" {
		t.Fatalf("params = %+v", op.Params)
	}
}

func TestMultipleVersions(t *testing.T) {
	f := mustParse(t, `
		program P {
			version V1 { void A(void) = 0; } = 1;
			version V2 { void A(void) = 0; int B(int) = 1; } = 2;
		} = 300000;`)
	if len(f.Interfaces) != 2 {
		t.Fatalf("interfaces = %d", len(f.Interfaces))
	}
	v2 := f.Interface("P_V2")
	if v2.Version != 2 || len(v2.Ops) != 2 {
		t.Fatalf("v2 = %+v", v2)
	}
	// Different versions must have different contracts.
	if f.Interface("P_V1").Signature() == v2.Signature() {
		t.Fatal("version should be part of the contract")
	}
}

func TestPassthroughLinesIgnored(t *testing.T) {
	mustParse(t, "%#include <rpc/rpc.h>\nconst X = 1;")
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, wantSub string }{
		{`union u switch (int x) { case 0: int a; };`, "unions are not supported"},
		{`typedef int *p;`, "optional data"},
		{`typedef opaque bad;`, "opaque requires"},
		{`typedef string s[8];`, "string cannot be fixed-length"},
		{`struct s { nosuch x; }; program P { version V { s A(void) = 0; } = 1; } = 2;`, "unknown type"},
		{`const A = 1; const A = 2;`, "duplicate const"},
		{`enum e { a, a };`, "duplicate enumerator"},
		{`program P { version V { opaque A(void) = 0; } = 1; } = 2;`, "procedure result"},
		{`program P { version V { void A(opaque) = 0; } = 1; } = 2;`, "opaque cannot be a bare argument"},
		{`const P = 1; program P { version V { void A(void) = 0; } = 1; } = 2;`, `t.x:1:22: duplicate program "P"`},
		{`const V = 1; program P { version V { void A(void) = 0; } = 1; } = 2;`, `t.x:1:34: duplicate version "V"`},
		{`typedef int x; typedef int x;`, `t.x:1:28: duplicate typedef "x"`},
		{`typedef int a[-1];`, `t.x:1:15: negative bound -1`},
		{`const M = -2; typedef int a<M>;`, `t.x:1:29: negative bound -2`},
		{`program P { version V { void A(void) = 1; void A(int) = 2; } = 1; } = 2;`, `t.x:1:48: duplicate procedure "A"`},
		{`program P { version V { void A(void) = 2; void B(void) = 2; } = 1; } = 2;`, `t.x:1:58: procedure "B": number 2 is taken by "A"`},
	}
	for _, c := range cases {
		_, err := Parse("t.x", c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("src %q: err = %v, want %q", c.src, err, c.wantSub)
		}
	}
}

func TestConstExpressionsAndHex(t *testing.T) {
	f := mustParse(t, `
		const SIZE = 0x20;
		const NEG = -4;
		typedef opaque fh[SIZE];`)
	if f.Consts["SIZE"] != 32 || f.Consts["NEG"] != -4 {
		t.Fatalf("consts = %v", f.Consts)
	}
	if f.Typedefs["fh"].Size != 32 {
		t.Fatalf("fh size = %d", f.Typedefs["fh"].Size)
	}
}
