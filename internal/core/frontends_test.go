package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"flexrpc/internal/runtime"
)

// One interface in the three dialects: scalars, a fixed array, fixed
// and variable-length byte buffers, and a struct in the two dialects
// that declare one (a MIG struct[N] is an array). MIG routines return
// only a status and XDR procedures take only in arguments, so the
// operations all three share are void with in parameters.
var alikeSources = []struct {
	fe  Frontend
	src string
}{
	{FrontendCORBA, `
		typedef long quad[4];
		typedef octet digest[16];
		struct stamp { long when; unsigned long who; digest sum; };
		interface Store {
			void put(in long key, in unsigned long flags, in quad where, in sequence<octet> data);
			void check(in boolean sync, in double ratio, in digest sum);
			void mark(in stamp s);
		};`},
	{FrontendSunXDR, `
		typedef int quad[4];
		typedef opaque digest[16];
		typedef opaque buf<>;
		struct stamp { int when; unsigned int who; digest sum; };
		program STORE {
			version STORE_V1 {
				void put(int, unsigned int, quad, buf) = 1;
				void check(bool, double, digest) = 2;
				void mark(stamp) = 3;
			} = 1;
		} = 0x20000101;`},
	{FrontendMIG, `
		subsystem Store 2600;
		type quad = array[4] of int;
		type digest = array[16] of char;
		type buf = array[] of char;
		routine put(server : mach_port_t; in key : int; in flags : unsigned; in where : quad; in data : buf);
		routine check(server : mach_port_t; in sync : boolean_t; in ratio : double_t; in sum : digest);`},
}

// TestFrontendsLowerAlike: the same interface written in CORBA IDL, Sun
// XDR and MIG defs lowers to the same contract — each operation's
// signature, its XDR plan certificate with parameter names left out, and
// the XDR bytes of one sample call's request and reply. Only the
// interface's identity differs: its name, and the program and version
// an XDR interface carries.
func TestFrontendsLowerAlike(t *testing.T) {
	sum := bytes.Repeat([]byte{0xA5}, 16)
	calls := map[string][]runtime.Value{
		"put":   {int32(-7), uint32(9), []runtime.Value{int32(1), int32(2), int32(3), int32(4)}, []byte("hello")},
		"check": {true, 0.5, sum},
		"mark":  {[]runtime.Value{int32(3), uint32(4), sum}},
	}
	type lowered struct{ sig, req, rep, cert string }
	want := map[string]lowered{}
	for _, s := range alikeSources {
		c, err := Compile(Options{Frontend: s.fe, Filename: "store", Source: s.src})
		if err != nil {
			t.Fatalf("%v: %v", s.fe, err)
		}
		plan, err := runtime.NewPlan(c.Pres, runtime.XDRCodec, nil)
		if err != nil {
			t.Fatalf("%v: %v", s.fe, err)
		}
		certs := plan.Certificate().Ops
		for i := range c.Iface.Ops {
			op, cert := plan.Ops[i], certs[i]
			for j := range cert.Steps {
				cert.Steps[j].Param = "" // XDR names its parameters arg1, arg2, ...
			}
			certJSON, err := json.Marshal(cert)
			if err != nil {
				t.Fatal(err)
			}
			req, rep := runtime.XDRCodec.NewEncoder(), runtime.XDRCodec.NewEncoder()
			if err := op.EncodeRequest(req, calls[op.Op.Name]); err != nil {
				t.Fatalf("%v %s request: %v", s.fe, op.Op.Name, err)
			}
			if err := op.EncodeReply(rep, make([]runtime.Value, len(op.Op.Params)), nil); err != nil {
				t.Fatalf("%v %s reply: %v", s.fe, op.Op.Name, err)
			}
			got := lowered{op.Op.Signature(), string(req.Bytes()), string(rep.Bytes()), string(certJSON)}
			w, ok := want[op.Op.Name]
			if !ok {
				want[op.Op.Name] = got
				continue
			}
			if got != w {
				t.Errorf("%v %s lowers to\n  %q\nwant\n  %q", s.fe, op.Op.Name, got, w)
			}
		}
	}
	if len(want) != 3 {
		t.Fatalf("compared operations %v, want put, check and mark", want)
	}
	if got := want["put"].sig; got != "put(in:i32,in:u32,in:array<i32,4>,in:bytes)->void" {
		t.Fatalf("put's signature %s", got)
	}
	if got := want["mark"].sig; got != "mark(in:struct{i32,u32,fbytes<16>})->void" {
		t.Fatalf("mark's signature %s", got)
	}
}
